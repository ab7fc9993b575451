// perfbench_probe: the benchmark's compiled half.
//
//   perfbench_probe loadgen --port=N --mix=FILE --minsup=N --closed=N --open=M
//     Replays a query mix against a running `ossm_cli serve` over loopback
//     TCP on kConnections connections: the first N lines closed-loop (at
//     most kClosedDepth queries outstanding per connection), the next M
//     open-loop at kOpenRate queries/s, each latency timed from the query's
//     intended send time. Every answer is checked against the oracle support
//     carried on its mix line. A query left unanswered for kStallSeconds
//     ends the run with exit code 1.
//
//   perfbench_probe spawn STATS_FILE PROGRAM ARGS...
//     Runs one program to completion and writes "wall_seconds maxrss_kb
//     minor_faults exit_code" to STATS_FILE. The launcher is small, so the
//     child's peak RSS is its own and not inherited from a large parent.
//
//   perfbench_probe layers --data=FILE --map=MAP --threshold=F --mix=FILE
//       --minsup=N --closed=N --segments=N --page=N
//     The traced per-layer run: times calls into each layer's public
//     functions (data, core, mining, kernels, serve) from this harness.
//
// Both print one JSON object on the last line of stdout. Mix lines are
// "<oracle support> <item> <item> ..." (written by gen.py, counted by
// oracle.py); the probe never computes a support itself.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/ossm_builder.h"
#include "core/ossm_io.h"
#include "core/segment_support_map.h"
#include "data/bitmap_index.h"
#include "data/dataset_io.h"
#include "kernels/kernels.h"
#include "mining/apriori.h"
#include "mining/candidate_pruner.h"
#include "mining/hash_tree.h"
#include "mining/itemset.h"
#include "parallel/thread_pool.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
  std::exit(1);
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad flag " + arg);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  uint64_t Int(const std::string& key) const {
    return std::strtoull(Str(key).c_str(), nullptr, 10);
  }
  double Real(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

struct MixEntry {
  uint64_t oracle = 0;
  ossm::Itemset items;
  std::string line;  // "Q a b c\n"
};

std::vector<MixEntry> LoadMix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<MixEntry> mix;
  const char* p = text.c_str();
  while (*p != '\0') {
    MixEntry entry;
    char* end = nullptr;
    entry.oracle = std::strtoull(p, &end, 10);
    p = end;
    entry.line.assign(1, 'Q');
    while (*p == ' ') {
      ossm::ItemId item =
          static_cast<ossm::ItemId>(std::strtoull(p + 1, &end, 10));
      entry.line.append(p, static_cast<size_t>(end - p));
      entry.items.push_back(item);
      p = end;
    }
    if (*p != '\n' || entry.items.empty()) Die("bad mix line in " + path);
    ++p;
    entry.line += '\n';
    mix.push_back(std::move(entry));
  }
  return mix;
}

// Median of repeated timings of fn(), in seconds.
double MedianSeconds(int repeats, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    Clock::time_point start = Clock::now();
    fn();
    times.push_back(Seconds(start, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// ---- spawn ----

int Spawn(int argc, char** argv) {
  if (argc < 4) Die("usage: perfbench_probe spawn STATS_FILE PROGRAM ARGS...");
  Clock::time_point start = Clock::now();
  pid_t pid = 0;
  if (::posix_spawn(&pid, argv[3], nullptr, nullptr, argv + 3, environ) != 0) {
    Die(std::string("cannot run ") + argv[3]);
  }
  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) != pid) Die("wait4 failed");
  double wall = Seconds(start, Clock::now());
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  FILE* f = std::fopen(argv[2], "w");
  if (f == nullptr) Die(std::string("cannot write ") + argv[2]);
  std::fprintf(f, "%.9f %ld %ld %d\n", wall, usage.ru_maxrss, usage.ru_minflt,
               code);
  std::fclose(f);
  return code;
}

// ---- loadgen ----

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_at = 0;
  std::string in;
  std::deque<std::pair<size_t, Clock::time_point>> pending;
};

struct Tally {
  uint64_t answered = 0;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  uint64_t reject = 0, singleton = 0, cache = 0, exact = 0;
  std::string first_problem;
};

// Checks one response line against the oracle support of its query.
void CheckAnswer(const std::string& response, const MixEntry& query,
                 uint64_t minsup, Tally* tally) {
  ++tally->answered;
  auto problem = [&](bool error) {
    (error ? tally->errors : tally->mismatches)++;
    if (tally->first_problem.empty()) {
      tally->first_problem = query.line.substr(0, query.line.size() - 1) +
                             " -> " + response;
      // It is printed inside a JSON string.
      std::replace_if(
          tally->first_problem.begin(), tally->first_problem.end(),
          [](char ch) { return ch == '"' || ch == '\\' || ch < ' '; }, '\'');
    }
  };
  if (response.rfind("OK ", 0) == 0) {
    char tier[32] = {0};
    unsigned long long support = 0;
    if (std::sscanf(response.c_str() + 3, "%llu %31s", &support, tier) != 2 ||
        support != query.oracle) {
      problem(false);
      return;
    }
    std::string t = tier;
    if (t == "singleton") ++tally->singleton;
    else if (t == "cache") ++tally->cache;
    else if (t == "exact") ++tally->exact;
    else problem(false);
  } else if (response.rfind("RJ ", 0) == 0) {
    uint64_t bound = std::strtoull(response.c_str() + 3, nullptr, 10);
    if (query.oracle >= minsup || query.oracle > bound || bound >= minsup) {
      problem(false);
      return;
    }
    ++tally->reject;
  } else {
    problem(true);
  }
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// One poll round over every connection: flushes pending output, reads
// what arrived, and hands each complete response line to on_line.
void Pump(std::vector<Connection>& conns, int64_t timeout_ns,
          const std::function<void(Connection&, const std::string&)>& on_line) {
  std::vector<pollfd> fds;
  for (Connection& c : conns) {
    short events = POLLIN;
    if (c.out_at < c.out.size()) events |= POLLOUT;
    fds.push_back({c.fd, events, 0});
  }
  timespec ts{timeout_ns / 1000000000, timeout_ns % 1000000000};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) {
    return;
  }
  for (size_t i = 0; i < conns.size(); ++i) {
    Connection& c = conns[i];
    if (fds[i].revents & POLLOUT) {
      ssize_t n = ::send(c.fd, c.out.data() + c.out_at, c.out.size() - c.out_at,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) c.out_at += static_cast<size_t>(n);
      if (c.out_at == c.out.size()) {
        c.out.clear();
        c.out_at = 0;
      }
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      char buffer[1 << 16];
      ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n == 0) Die("server closed a connection");
      if (n > 0) c.in.append(buffer, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        on_line(c, c.in.substr(start, nl - start));
      }
      c.in.erase(0, start);
    }
  }
}

// Two connections and one generator thread leave the other CPUs to the
// server. 64 outstanding per connection keeps the closed loop well below
// the server's queue limit (4,096); 20,000 queries/s is below saturation.
constexpr size_t kConnections = 2;
constexpr size_t kClosedDepth = 64;
constexpr double kOpenRate = 20000;
constexpr size_t kMaxInFlight = 1024;
constexpr double kStallSeconds = 10;
constexpr int64_t kPollNs = 1000000000;

// Dies when a connection's oldest outstanding query has waited longer than
// kStallSeconds: a server that stops answering fails the run, not hangs it.
void CheckStall(const std::vector<Connection>& conns) {
  Clock::time_point now = Clock::now();
  for (const Connection& c : conns) {
    if (!c.pending.empty() &&
        Seconds(c.pending.front().second, now) > kStallSeconds) {
      Die("server stopped answering");
    }
  }
}

int Loadgen(const Flags& flags) {
  std::vector<MixEntry> mix = LoadMix(flags.Str("mix"));
  uint64_t minsup = flags.Int("minsup");
  size_t closed = flags.Int("closed");
  size_t open = flags.Int("open");
  if (closed + open > mix.size()) Die("mix shorter than closed + open");
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) c.fd = Connect(flags.Int("port"));

  Tally tally;
  auto on_answer = [&](Connection& c, const std::string& line) {
    if (c.pending.empty()) Die("unsolicited response: " + line);
    CheckAnswer(line, mix[c.pending.front().first], minsup, &tally);
    c.pending.pop_front();
  };

  // Closed loop: connection i owns queries i, i+C, i+2C, ...
  std::vector<size_t> next(conns.size());
  for (size_t i = 0; i < conns.size(); ++i) next[i] = i;
  // The closed phase is timed in kSlices equal slices of answers, each
  // reported as its own throughput sample.
  constexpr size_t kSlices = 3;
  std::vector<std::pair<uint64_t, Clock::time_point>> marks = {
      {0, Clock::now()}};
  while (tally.answered < closed) {
    for (size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      while (c.pending.size() < kClosedDepth && next[i] < closed) {
        c.out += mix[next[i]].line;
        c.pending.emplace_back(next[i], Clock::now());
        next[i] += conns.size();
      }
    }
    Pump(conns, kPollNs, on_answer);
    CheckStall(conns);
    if (marks.size() <= kSlices &&
           tally.answered >= closed * marks.size() / kSlices) {
      marks.emplace_back(tally.answered, Clock::now());
    }
  }
  std::string slice_qps;
  for (size_t i = 1; i < marks.size(); ++i) {
    char number[32];
    std::snprintf(number, sizeof(number), "%s%.6f", i > 1 ? ", " : "",
                  (marks[i].first - marks[i - 1].first) /
                      Seconds(marks[i - 1].second, marks[i].second));
    slice_qps += number;
  }

  // Open loop at a fixed rate; latency runs from the intended send time,
  // so a stall delays every query scheduled behind it.
  std::vector<double> latencies;
  std::vector<double> late;  // how far behind schedule each send was
  latencies.reserve(open);
  auto on_timed = [&](Connection& c, const std::string& line) {
    if (c.pending.empty()) Die("unsolicited response: " + line);
    latencies.push_back(Seconds(c.pending.front().second, Clock::now()));
    on_answer(c, line);
  };
  Clock::time_point open_start = Clock::now();
  auto intended = [&](size_t k) {
    return open_start + std::chrono::nanoseconds(
                            static_cast<int64_t>(1e9 * k / kOpenRate));
  };
  size_t sent = 0;
  while (latencies.size() < open) {
    Clock::time_point now = Clock::now();
    for (; sent < open && intended(sent) <= now; ++sent) {
      Connection& c = conns[sent % conns.size()];
      // Past this many in flight the server's queue limit would answer
      // ERR; hold the query back instead (its latency keeps counting from
      // the intended time, so the stall still shows).
      if (c.pending.size() >= kMaxInFlight) break;
      late.push_back(Seconds(intended(sent), now));
      c.out += mix[closed + sent].line;
      c.pending.emplace_back(closed + sent, intended(sent));
    }
    int64_t wait_ns = kPollNs;
    if (sent < open) {
      wait_ns = std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 intended(sent) - Clock::now())
                 .count());
    }
    bool backlog = false;
    for (Connection& c : conns) backlog |= c.out_at < c.out.size();
    Pump(conns, backlog ? 0 : std::min(wait_ns, kPollNs), on_timed);
    CheckStall(conns);
  }
  for (Connection& c : conns) ::close(c.fd);

  auto quantile = [](std::vector<double>& v, double q) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0
                     : v[std::min(v.size() - 1, static_cast<size_t>(q * v.size()))];
  };
  std::printf(
      "{\"closed_qps\": [%s], \"open_p50_ms\": %.6f, \"open_p99_ms\": %.6f, "
      "\"late_p99_ms\": %.6f, "
      "\"answered\": %llu, \"mismatches\": %llu, \"errors\": %llu, "
      "\"reject\": %llu, \"singleton\": %llu, \"cache\": %llu, "
      "\"exact\": %llu, \"first_problem\": \"%s\"}\n",
      slice_qps.c_str(), 1e3 * quantile(latencies, 0.5),
      1e3 * quantile(latencies, 0.99), 1e3 * quantile(late, 0.99),
      static_cast<unsigned long long>(tally.answered),
      static_cast<unsigned long long>(tally.mismatches),
      static_cast<unsigned long long>(tally.errors),
      static_cast<unsigned long long>(tally.reject),
      static_cast<unsigned long long>(tally.singleton),
      static_cast<unsigned long long>(tally.cache),
      static_cast<unsigned long long>(tally.exact),
      tally.first_problem.c_str());
  return 0;
}

// ---- layers ----

class JsonOut {
 public:
  void Add(const std::string& name, double value) {
    body_ += (body_.empty() ? "" : ", ");
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", value);
    body_ += "\"" + name + "\": " + number;
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

template <typename T>
T Unwrap(ossm::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// Bytes touched per second, in GiB/s, for `calls` calls of `fn` that each
// read `bytes` bytes; the sink keeps the results live.
double KernelGibps(uint64_t bytes, uint64_t calls,
                   const std::function<uint64_t(uint64_t)>& fn) {
  volatile uint64_t sink = 0;
  double seconds = MedianSeconds(5, [&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < calls; ++i) acc += fn(i);
    sink = sink + acc;
  });
  return static_cast<double>(bytes * calls) / seconds / (1ull << 30);
}

int Layers(const Flags& flags) {
  using namespace ossm;
  JsonOut out;
  const std::string data_path = flags.Str("data");

  // data
  TransactionDatabase db(0);
  out.Add("data.load_s", MedianSeconds(5, [&] {
            db = Unwrap(DatasetIo::LoadText(data_path), "load");
          }));
  BitmapIndex bitmap;
  out.Add("data.bitmap_build_s",
          MedianSeconds(5, [&] { bitmap = BitmapIndex::Build(db); }));

  // core: the two build paths run ossub evaluations only.
  OssmBuildOptions build;
  build.target_segments = flags.Int("segments");
  build.transactions_per_page = flags.Int("page");
  build.algorithm = SegmentationAlgorithm::kRandomGreedy;
  OssmBuildResult greedy = Unwrap(BuildOssm(db, build), "greedy build");
  build.algorithm = SegmentationAlgorithm::kRandomRc;
  OssmBuildResult rc = Unwrap(BuildOssm(db, build), "rc build");
  out.Add("core.ossub_evals",
          static_cast<double>(greedy.stats.ossub_evaluations));
  out.Add("core.ossub_us.greedy",
          1e6 * greedy.stats.seconds / greedy.stats.ossub_evaluations);
  out.Add("core.ossub_us.rc",
          1e6 * rc.stats.seconds / rc.stats.ossub_evaluations);

  SegmentSupportMap map = Unwrap(OssmIo::Load(flags.Str("map")), "map");
  OssmPruner pruner(&map);
  AprioriConfig config;
  config.min_support_fraction = flags.Real("threshold");
  config.pruner = &pruner;
  const uint64_t minsup = EffectiveMinSupport(config, db.num_transactions());

  // mining: Apriori's level loop driven through the public functions it is
  // built from, then the miner itself for its own MiningStats.
  std::vector<uint64_t> supports = db.ComputeItemSupports();
  std::vector<Itemset> frequent;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    if (supports[item] >= minsup) frequent.push_back({item});
  }
  std::map<uint32_t, uint64_t> probe_frequent;
  uint64_t evaluated = 0, eliminated = 0;
  for (uint32_t level = 2; level <= 4 && frequent.size() >= 2; ++level) {
    std::vector<Itemset> candidates;
    double gen_s = MedianSeconds(
        5, [&] { candidates = GenerateLevelCandidates(frequent); });
    std::vector<Itemset> admitted;
    for (const Itemset& c : candidates) {
      if (pruner.UpperBound(c) >= minsup) admitted.push_back(c);
    }
    evaluated += candidates.size();
    eliminated += candidates.size() - admitted.size();
    if (level == 2 && !candidates.empty()) {
      // Repeat the level-2 bound pass until it is long enough to time.
      uint64_t calls = 0;
      volatile uint64_t sink = 0;
      Clock::time_point start = Clock::now();
      do {
        for (const Itemset& c : candidates) sink = sink + pruner.UpperBound(c);
        calls += candidates.size();
      } while (Seconds(start, Clock::now()) < 0.2);
      out.Add("core.bound_ns", 1e9 * Seconds(start, Clock::now()) / calls);
    }
    std::vector<Itemset> next;
    double count_s = MedianSeconds(3, [&] {
      HashTree tree(admitted);
      std::vector<HashTree::CountingState> states;
      uint32_t shards = parallel::NumShards(0, db.num_transactions());
      for (uint32_t s = 0; s < std::max<uint32_t>(shards, 1); ++s) {
        states.push_back(tree.MakeCountingState());
      }
      parallel::ParallelFor(0, db.num_transactions(),
                            [&](uint32_t shard, uint64_t b, uint64_t e) {
                              for (uint64_t t = b; t < e; ++t) {
                                tree.CountTransaction(db.transaction(t),
                                                      &states[shard]);
                              }
                            });
      for (const HashTree::CountingState& s : states) tree.MergeCounts(s);
      next.clear();
      for (size_t c = 0; c < tree.num_candidates(); ++c) {
        if (tree.counts()[c] >= minsup) next.push_back(tree.candidates()[c]);
      }
    });
    std::string suffix = ".L" + std::to_string(level);
    out.Add("mining.gen_s" + suffix, gen_s);
    out.Add("mining.count_s" + suffix, count_s);
    probe_frequent[level] = next.size();
    frequent = std::move(next);
    std::sort(frequent.begin(), frequent.end(), ItemsetLess);
  }
  out.Add("core.bound_prune_ratio",
          evaluated ? static_cast<double>(eliminated) / evaluated : 0.0);

  MiningResult mined = Unwrap(MineApriori(db, config), "apriori");
  uint64_t counted = 0, found = 0;
  for (const LevelStats& level : mined.stats.levels) {
    if (level.level >= 2) {
      counted += level.candidates_counted;
      found += level.frequent;
    }
    if (level.level < 2 || level.level > 4) continue;
    if (probe_frequent.count(level.level) &&
        probe_frequent[level.level] != level.frequent) {
      Die("level " + std::to_string(level.level) +
          ": the probe's level loop disagrees with MineApriori");
    }
    std::string suffix = ".L" + std::to_string(level.level);
    out.Add("mining.candidates" + suffix,
            static_cast<double>(level.candidates_generated));
    out.Add("mining.counted" + suffix,
            static_cast<double>(level.candidates_counted));
    out.Add("mining.frequent" + suffix, static_cast<double>(level.frequent));
  }
  out.Add("mining.frequent_per_counted",
          counted ? static_cast<double>(found) / counted : 0.0);

  // kernels, at the shapes the layers above use them.
  {
    const size_t segments = map.num_segments();
    const uint32_t items = map.num_items();
    out.Add("kernels.min_sum_gibps",
            KernelGibps(2 * segments * 8, 1 << 20, [&](uint64_t i) {
              return kernels::MinSumU64(map.item_row(i % items).data(),
                                        map.item_row((i * 7 + 1) % items).data(),
                                        segments);
            }));
    std::vector<uint64_t> a(items), b(items), merged(items);
    for (uint32_t x = 0; x < items; ++x) {
      a[x] = map.item_row(x)[0];
      b[x] = map.item_row(x)[segments - 1];
      merged[x] = a[x] + b[x];
    }
    out.Add("kernels.pair_loss_row_gibps",
            KernelGibps(3 * items * 8, 1 << 16, [&](uint64_t i) {
              return kernels::PairLossRow(a[i % items], b[i % items], a.data(),
                                          b.data(), merged.data(), items);
            }));
    const size_t words = bitmap.words_per_row();
    out.Add("kernels.and_popcount_gibps",
            KernelGibps(2 * words * 8, 1 << 16, [&](uint64_t i) {
              return kernels::AndPopcount(
                  bitmap.row(i % items).data(),
                  bitmap.row((i * 7 + 1) % items).data(), words);
            }));
  }

  // serve: the engine in process on the closed-loop part of the mix, in
  // batches the size of the server's default wave, and the request parser.
  std::vector<MixEntry> mix = LoadMix(flags.Str("mix"));
  mix.resize(std::min<size_t>(mix.size(), flags.Int("closed")));
  serve::QueryEngineConfig engine_config;
  engine_config.min_support = flags.Int("minsup");
  serve::QueryEngine engine(&db, &map, engine_config);
  std::vector<Itemset> wave;
  Clock::time_point serve_start = Clock::now();
  for (size_t q = 0; q < mix.size(); q += 64) {
    wave.clear();
    for (size_t i = q; i < std::min(q + 64, mix.size()); ++i) {
      wave.push_back(mix[i].items);
    }
    std::vector<serve::QueryResult> answers =
        Unwrap(engine.QueryBatch(wave), "QueryBatch");
    for (size_t i = 0; i < answers.size(); ++i) {
      const MixEntry& m = mix[q + i];
      bool ok = answers[i].tier == serve::QueryTier::kBoundReject
                    ? m.oracle < engine.min_support() &&
                          m.oracle <= answers[i].support
                    : answers[i].support == m.oracle;
      if (!ok) Die("engine answer disagrees with the oracle: " + m.line);
    }
  }
  out.Add("serve.engine_qps",
          mix.size() / Seconds(serve_start, Clock::now()));
  serve::EngineStats stats = engine.Stats();
  const double queries = static_cast<double>(stats.queries);
  out.Add("serve.tier.reject", stats.bound_rejects / queries);
  out.Add("serve.tier.singleton", stats.singleton_hits / queries);
  out.Add("serve.tier.cache", stats.cache_hits / queries);
  out.Add("serve.tier.exact", stats.exact_counts / queries);
  out.Add("serve.cache_hit_ratio",
          static_cast<double>(stats.cache_hits) /
              std::max<uint64_t>(1, stats.cache_hits + stats.exact_counts));
  serve::PlannerStats planner = engine.planner_stats();
  out.Add("serve.planner_saved_ratio",
          static_cast<double>(planner.intersections_saved) /
              std::max<uint64_t>(1, planner.intersections_saved +
                                        planner.nodes_materialized));
  {
    std::vector<std::string> lines;
    for (const MixEntry& m : mix) lines.push_back(m.line.substr(0, m.line.size() - 1));
    size_t parsed = 0;
    double seconds = MedianSeconds(5, [&] {
      for (const std::string& line : lines) {
        parsed += serve::ParseRequest(line).ok() ? 1 : 0;
      }
    });
    if (parsed != 5 * lines.size()) Die("ParseRequest refused a mix line");
    out.Add("serve.parse_ns", 1e9 * seconds / lines.size());
  }
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "spawn") return Spawn(argc, argv);
  Flags flags(argc, argv);
  if (mode == "loadgen") return Loadgen(flags);
  if (mode == "layers") return Layers(flags);
  Die("usage: perfbench_probe loadgen|layers --flag=value ...");
}
