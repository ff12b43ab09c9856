// twbench: runs one benchmark workload for a fixed wall-time budget and
// writes everything it measured as one JSON document. perfbench/run.py
// builds it, runs it, checks the outputs and turns the raw measurements into
// metrics; see README.md.
//
//   twbench --workload NAME --seed N --seconds S --traced 0|1 --out FILE
//
// Untraced (--traced 0): an untimed warm-up run per instance, then timed runs
// on fresh testbeds, cycling through the instances, until S seconds have
// passed, then an untimed reference run per instance. Before each timed run
// it also times kSetupBuilds back-to-back harness::build_testbed calls, so
// that the set-up samples span the same stretch of time as the runs.
//
// Traced (--traced 1): the same, except that each instance runs twice in a
// row, untraced then traced, and no set-up builds are timed. A traced run
// records spans around the three harness calls, counts allocations and
// samples call stacks inside its run_to_completion span, and reads the exact
// work counters.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "sampler.hpp"
#include "workloads.hpp"

namespace {

using nicwarp::harness::ExperimentConfig;
using nicwarp::harness::ExperimentResult;
using nicwarp::harness::Testbed;

// Each call runs this many instances of its workload, with model seeds
// seed + i * 2^32; instance 0 has the model seed given. POLICE's host cost
// per committed event differs by up to 10% between seeds, so one seed per
// call would make the seed, not the program, dominate the spread of a
// workload's medians.
constexpr std::size_t kInstances = 4;
constexpr int kSetupBuilds = 4;
// Enough slots for ~60 s of sampling at a 250 Hz tick on two threads.
constexpr std::size_t kSampleCapacity = 1u << 15;

struct Fingerprint {
  bool completed = false;
  std::int64_t committed = 0;
  std::int64_t signature = 0;
  double sim_s = 0.0;
  std::int64_t processed = 0;
};

Fingerprint fingerprint(const ExperimentResult& r) {
  return {r.completed, r.committed_events, r.signature, r.sim_seconds,
          r.events_processed};
}

struct Span {
  const char* name;
  int rep;
  double start_us;
  double dur_us;
};

struct Rep {
  std::size_t instance = 0;
  bool traced = false;
  std::string error;
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  Fingerprint fp;
  // Exact counts, traced runs only.
  std::uint64_t allocs = 0;
  std::size_t samples = 0;
  std::int64_t shard_rounds = 0;
  std::vector<std::uint64_t> tasks;      // Engine::executed() per shard
  std::vector<std::size_t> pool_peak;    // PacketPool::peak() per shard
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double wall_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Fingerprint run_untimed(const ExperimentConfig& cfg) {
  Testbed tb = nicwarp::harness::build_testbed(cfg);
  const bool completed = tb.run_to_completion(cfg.max_sim_seconds);
  return fingerprint(nicwarp::harness::extract_result(tb, completed));
}

Rep timed_run(const ExperimentConfig& cfg, bool traced, int index,
              std::vector<Span>& spans) {
  Rep rep;
  rep.traced = traced;
  try {
    const double t0 = wall_s();
    Testbed tb = nicwarp::harness::build_testbed(cfg);
    const double t1 = wall_s();
    const std::uint64_t allocs0 = perfbench::alloc_count();
    const std::size_t samples0 = perfbench::sampler_count();
    if (traced) {
      perfbench::set_alloc_counting(true);
      perfbench::sampler_start();
    }
    const double c1 = cpu_s();
    const double w1 = wall_s();
    const bool completed = tb.run_to_completion(cfg.max_sim_seconds);
    const double w2 = wall_s();
    const double c2 = cpu_s();
    if (traced) {
      perfbench::sampler_stop();
      perfbench::set_alloc_counting(false);
    }
    const ExperimentResult r = nicwarp::harness::extract_result(tb, completed);
    const double t3 = wall_s();

    rep.run_wall_s = w2 - w1;
    rep.run_cpu_s = c2 - c1;
    rep.fp = fingerprint(r);
    if (!traced) return rep;

    spans.push_back({"harness.build_testbed", index, t0 * 1e6, (t1 - t0) * 1e6});
    spans.push_back({"harness.run_to_completion", index, w1 * 1e6, (w2 - w1) * 1e6});
    spans.push_back({"harness.extract_result", index, w2 * 1e6, (t3 - w2) * 1e6});
    rep.allocs = perfbench::alloc_count() - allocs0;
    rep.samples = perfbench::sampler_count() - samples0;
    rep.shard_rounds = r.shard_rounds;
    nicwarp::hw::Cluster& cl = *tb.cluster;
    for (std::uint32_t s = 0; s < cl.shards(); ++s) {
      rep.tasks.push_back(cl.engine(s).executed());
      rep.pool_peak.push_back(cl.pool(s).peak());
    }
    rep.counters = cl.merged_stats().all_counters();
  } catch (const std::exception& e) {
    perfbench::sampler_stop();
    perfbench::set_alloc_counting(false);
    rep.error = e.what();
  }
  return rep;
}

// ---- JSON output ----

void put_fp(std::ostream& os, const Fingerprint& fp) {
  os << "{\"completed\": " << (fp.completed ? "true" : "false")
     << ", \"committed\": " << fp.committed << ", \"signature\": " << fp.signature
     << ", \"sim_s\": " << fp.sim_s << ", \"processed\": " << fp.processed << "}";
}

void put_fps(std::ostream& os, const std::vector<Fingerprint>& fps) {
  os << "[";
  for (std::size_t i = 0; i < fps.size(); ++i) {
    os << (i ? ", " : "");
    put_fp(os, fps[i]);
  }
  os << "]";
}

template <typename T>
void put_list(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
}

void put_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void put_rep(std::ostream& os, const Rep& r) {
  os << "{\"instance\": " << r.instance << ", \"traced\": " << (r.traced ? "true" : "false")
     << ", \"error\": ";
  put_string(os, r.error);
  os << ", \"run_wall_s\": " << r.run_wall_s << ", \"run_cpu_s\": " << r.run_cpu_s
     << ", \"fingerprint\": ";
  put_fp(os, r.fp);
  if (r.traced) {
    os << ", \"allocs\": " << r.allocs << ", \"samples\": " << r.samples
       << ", \"shard_rounds\": " << r.shard_rounds << ", \"tasks\": ";
    put_list(os, r.tasks);
    os << ", \"pool_peak\": ";
    put_list(os, r.pool_peak);
    os << ", \"counters\": {";
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
      os << (i ? ", " : "");
      put_string(os, r.counters[i].first);
      os << ": " << r.counters[i].second;
    }
    os << "}";
  }
  os << "}";
}

// Each stack as file addresses ready for addr2line: return addresses step
// back one byte into their call instruction, and frames outside the main
// executable (libc, libstdc++) become 0.
void put_samples(std::ostream& os) {
  const perfbench::ExeText text = perfbench::exe_text();
  os << "{\"dropped\": " << perfbench::sampler_dropped()
     << ", \"unwind_misses\": " << perfbench::sampler_unwind_misses()
     << ", \"stacks\": [";
  for (std::size_t i = 0; i < perfbench::sampler_count(); ++i) {
    const perfbench::StackSample& s = perfbench::sampler_sample(i);
    os << (i ? ",\n" : "\n") << "[";
    for (int k = 0; k < s.depth; ++k) {
      const std::uintptr_t pc = s.pcs[k];
      const bool in_exe = pc >= text.lo && pc < text.hi;
      os << (k ? "," : "") << (in_exe ? pc - (k > 0 ? 1 : 0) - text.bias : 0);
    }
    os << "]";
  }
  os << "]}";
}

// VmHWM, not getrusage(): Linux carries ru_maxrss across execve, so the
// latter would report the launching process's peak when that was larger.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long kb = -1;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      break;
    }
    status.ignore(4096, '\n');
  }
  return kb;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "twbench: " << why
            << "\nusage: twbench --workload NAME --seed N --seconds S "
               "--traced 0|1 --out FILE\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        if (val.empty() || val[0] == '-') usage("--seed must be non-negative");
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--traced") {
        if (val != "0" && val != "1") usage("--traced takes 0 or 1");
        a.traced = val == "1";
      } else if (key == "--out") {
        a.out = val;
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (a.workload.empty() || a.out.empty() || !have_seed || !(a.seconds > 0.0)) {
    usage("missing argument");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds. glibc's defaults move them as blocks are freed,
  // and whether a testbed's large blocks then came from recycled heap or
  // fresh pages flipped between processes: one phold_sharded build took
  // either ~0.25 ms or ~1 ms. These values are the limits the dynamic
  // thresholds grow towards.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) usage("unknown workload");
  std::vector<ExperimentConfig> cfgs;
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    cfgs.push_back(w->make(args.seed + (i << 32)));
  }
  if (args.traced) perfbench::sampler_init(kSampleCapacity);

  try {
    std::vector<Fingerprint> warmup;
    for (const ExperimentConfig& cfg : cfgs) warmup.push_back(run_untimed(cfg));

    std::vector<double> setup_s;
    std::vector<Rep> reps;
    std::vector<Span> spans;
    std::vector<int> traced_reps(kInstances, 0);
    const auto every_instance_traced = [&] {
      for (const int n : traced_reps) {
        if (n == 0) return false;
      }
      return true;
    };
    const double start = wall_s();
    while (wall_s() - start < args.seconds || reps.size() < kInstances ||
           (args.traced && !every_instance_traced())) {
      // Traced calls run each instance twice in a row, untraced then traced.
      const std::size_t r = reps.size();
      const bool traced = args.traced && r % 2 == 1;
      const std::size_t inst = (args.traced ? r / 2 : r) % kInstances;
      for (int k = 0; k < kSetupBuilds && !args.traced; ++k) {
        const double t0 = wall_s();
        const Testbed tb = nicwarp::harness::build_testbed(cfgs[inst]);
        setup_s.push_back(wall_s() - t0);
      }
      reps.push_back(timed_run(cfgs[inst], traced, static_cast<int>(r), spans));
      reps.back().instance = inst;
      traced_reps[inst] += traced ? 1 : 0;
    }
    // Read before the reference runs, whose configuration can need far more
    // memory than the measured one.
    const long peak_rss = peak_rss_kb();
    std::vector<Fingerprint> reference;
    for (std::uint64_t i = 0; i < kInstances; ++i) {
      reference.push_back(run_untimed(w->make_reference(args.seed + (i << 32))));
    }

    std::ofstream os(args.out);
    if (!os) {
      std::cerr << "twbench: cannot write " << args.out << "\n";
      return 1;
    }
    os << std::setprecision(17);
    os << "{\"workload\": ";
    put_string(os, args.workload);
    os << ", \"seed\": " << args.seed << ", \"traced\": " << (args.traced ? "true" : "false")
       << ",\n \"exe\": ";
    put_string(os, self_exe());
    os << ", \"src_root\": ";
    put_string(os, PERFBENCH_SRC_ROOT);
    os << ",\n \"warmup\": ";
    put_fps(os, warmup);
    os << ",\n \"reference\": ";
    put_fps(os, reference);
    os << ",\n \"setup_s\": ";
    put_list(os, setup_s);
    os << ",\n \"peak_rss_kb\": " << peak_rss << ",\n \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      os << (i ? ",\n  " : "\n  ");
      put_rep(os, reps[i]);
    }
    os << "],\n \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << spans[i].name
         << "\", \"rep\": " << spans[i].rep << ", \"start_us\": " << spans[i].start_us
         << ", \"dur_us\": " << spans[i].dur_us << "}";
    }
    os << "],\n \"samples\": ";
    put_samples(os);
    os << "}\n";
    if (!os.flush()) {
      std::cerr << "twbench: write to " << args.out << " failed\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "twbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
