// gpcbench: the process perfbench/run.py starts for each measurement.
//
//   gpcbench --workload paper_suite|sim_memory|launch_flood --seed N
//            --seconds S --mode e2e|layers|traced|digest --expected DIR
//
// Prints one JSON object as its last stdout line:
//   {"attempted": A, "failed": F, "errors": [...], "metrics": {name: value}}
// run.py adds units, the host fingerprint and the traced/untraced merge.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>

#include "bench.h"
#include "common/error.h"
#include "prof/prof.h"

namespace perfbench {

void Output::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Output::add(const std::string& name, double value) {
  metrics.emplace_back(name, value);
}

void Output::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double fast_quartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::max<std::size_t>(1, v.size() / 4);
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

void LatencyHistogram::add(double us) {
  const double b = us / kBucketUs;
  const std::size_t last = buckets_.size() - 1;
  ++buckets_[b < static_cast<double>(last) ? static_cast<std::size_t>(b) : last];
  ++count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) > rank) {
      return (static_cast<double>(i) + 0.5) * kBucketUs;
    }
  }
  return static_cast<double>(buckets_.size()) * kBucketUs;
}

void rotate_cpus(std::size_t turn, std::size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t j = 0; j < std::min(k, cpus.size()); ++j) {
    CPU_SET(cpus[(turn + j) % cpus.size()], &set);
  }
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* e = readdir(tasks)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
  closedir(tasks);
}

void use_all_cpus() {
  rotate_cpus(0, std::numeric_limits<std::size_t>::max());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t warp_instr(const gpc::sim::BlockStats& s) {
  std::uint64_t n = 0;
  for (std::uint64_t k : s.xkind_issues) n += k;
  return n;
}

std::vector<std::string> read_expected(const Args& args,
                                       const std::string& name) {
  const std::string path = args.expected_dir + "/" + name;
  std::ifstream in(path);
  if (!in) throw gpc::InvalidArgument("missing expected digest " + path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') lines.push_back(l);
  }
  return lines;
}

}  // namespace perfbench

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gpcbench --workload W --seed N --seconds S "
               "--mode e2e|layers|traced|digest --expected DIR\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

void print_output(const perfbench::Output& out) {
  std::string line = "{\"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    line += (i ? ", \"" : "\"") + json_escape(out.errors[i]) + "\"";
  }
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[64];
    const double v = out.metrics[i].second;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    line += (i ? ", \"" : "\"") + out.metrics[i].first + "\": " + buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v);
    } else if (k == "--expected") {
      args.expected_dir = v;
    } else if (k == "--mode") {
      const std::string m = v;
      if (m == "e2e") {
        args.mode = perfbench::Mode::E2e;
      } else if (m == "layers") {
        args.mode = perfbench::Mode::Layers;
      } else if (m == "traced") {
        args.mode = perfbench::Mode::Traced;
      } else if (m == "digest") {
        args.mode = perfbench::Mode::Digest;
      } else {
        usage();
      }
    } else {
      usage();
    }
  }
  if (args.workload.empty() || args.expected_dir.empty() ||
      !(args.seconds > 0)) {
    usage();
  }
  // Tracing is armed by GPC_PROF in the environment, and only the traced
  // process may carry it: every other number must come from untraced code.
  if ((args.mode == perfbench::Mode::Traced) != gpc::prof::enabled()) {
    std::fprintf(stderr, "gpcbench: GPC_PROF must be set exactly for "
                         "--mode traced\n");
    return 2;
  }

  perfbench::Output out;
  try {
    if (args.workload == "paper_suite") {
      perfbench::run_paper_suite(args, out);
    } else if (args.workload == "sim_memory") {
      perfbench::run_sim_memory(args, out);
    } else if (args.workload == "launch_flood") {
      perfbench::run_launch_flood(args, out);
    } else {
      std::fprintf(stderr, "gpcbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpcbench: %s\n", e.what());
    return 1;
  }
  if (args.mode == perfbench::Mode::Digest) return 0;
  if (args.mode == perfbench::Mode::E2e) {
    out.add("peak_rss_mb", perfbench::peak_rss_mb());
  }
  print_output(out);
  return 0;
}
