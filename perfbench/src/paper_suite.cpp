// paper_suite: the Figure 3 matrix — 14 Table II benchmarks x {CUDA,
// OpenCL} x {GTX280, GTX480} through bench::Benchmark::run at default
// options, on the shared two-worker simulator pool. This is what a reader
// runs to reproduce the paper, and it exercises every layer in its real
// proportions. Its inputs are the paper's fixed matrix, so it takes no seed.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench.h"
#include "bench_kernels/kernels.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "compiler/pipeline.h"
#include "harness/benchmark.h"
#include "prof/prof.h"
#include "sim/decode.h"
#include "spans.h"

namespace perfbench {
namespace {

using gpc::arch::Toolchain;

struct Cell {
  const gpc::bench::Benchmark* bench;
  const gpc::arch::DeviceSpec* device;
  Toolchain tc;
};

std::vector<Cell> matrix() {
  std::vector<Cell> cells;
  for (const gpc::bench::Benchmark* b : gpc::bench::real_world_benchmarks()) {
    for (const gpc::arch::DeviceSpec* d :
         {&gpc::arch::gtx280(), &gpc::arch::gtx480()}) {
      for (Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
        cells.push_back({b, d, tc});
      }
    }
  }
  return cells;
}

/// One digest line per cell: the outcome and simulated value the paper
/// figure is made of, plus the exact launch and instruction counts.
std::string digest_line(const Cell& c, const gpc::bench::Result& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s %s %s %.9g %d %llu",
                c.bench->name().c_str(), c.device->short_name.c_str(),
                gpc::arch::to_string(c.tc), r.status.c_str(), r.value,
                r.launches,
                static_cast<unsigned long long>(warp_instr(r.stats)));
  return buf;
}

/// The kernels the Table II benchmarks build, at their default parameters.
std::vector<gpc::kernel::KernelDef> table2_kernels() {
  namespace k = gpc::bench::kernels;
  using gpc::kernel::Unroll;
  return {k::bfs_expand(),
          k::bfs_update(),
          k::sobel(false, 16),
          k::sobel(true, 16),
          k::tranp(true, 16),
          k::reduce_stage1(256),
          k::reduce_stage2(256),
          k::fft_forward(),
          k::md(32),
          k::spmv_vector(128),
          k::stencil2d(16),
          k::dxtc(),
          k::radix_block_sort(256, 2),
          k::radix_scatter(256, 2),
          k::scan_block(256),
          k::scan_add_sums(256),
          k::sortnw_global_step(),
          k::sortnw_shared(128),
          k::mxm(16),
          k::fdtd(Unroll{9, 0}, Unroll{-1, -1})};
}

/// Set-up: build, compile and decode every Table II kernel for both
/// toolchains. Returns the host seconds it took.
double setup_once() {
  const double t0 = now_s();
  for (const auto& def : table2_kernels()) {
    for (Toolchain tc : {Toolchain::Cuda, Toolchain::OpenCl}) {
      const auto ck = gpc::compiler::compile(def, tc);
      (void)gpc::sim::decoded(ck);
    }
  }
  return now_s() - t0;
}

struct Pass {
  std::vector<double> cell_s;
  std::vector<int> cell_launches;
  std::vector<std::string> digest;
  double total_s = 0;
};

/// Runs the matrix once, checking every cell against the committed digest.
Pass run_pass(const std::vector<Cell>& cells,
              const std::vector<std::string>& expected, Output& out,
              long* launches, std::uint64_t* instr) {
  const gpc::bench::Options opts;
  Pass p;
  *launches = 0;
  *instr = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const double c0 = now_s();
    gpc::bench::Result r;
    {
      gpc::prof::ScopedSpan span("perfbench", layer::kBenchRun);
      r = c.bench->run(*c.device, c.tc, opts);
    }
    p.cell_s.push_back(now_s() - c0);
    p.cell_launches.push_back(r.launches);
    const std::string got = digest_line(c, r);
    p.digest.push_back(got);
    out.check(i < expected.size() && got == expected[i],
              "paper_suite cell: got '" + got + "', want '" +
                  (i < expected.size() ? expected[i] : "") + "'");
    *launches += r.launches;
    *instr += warp_instr(r.stats);
  }
  p.total_s = now_s() - t0;
  return p;
}

}  // namespace

void run_paper_suite(const Args& args, Output& out) {
  const std::vector<Cell> cells = matrix();
  if (args.mode == Mode::Digest) {
    long launches = 0;
    std::uint64_t instr = 0;
    Output scratch;
    for (const std::string& l :
         run_pass(cells, {}, scratch, &launches, &instr).digest) {
      std::printf("%s\n", l.c_str());
    }
    return;
  }
  const std::vector<std::string> expected =
      read_expected(args, "paper_suite.txt");
  if (expected.size() != cells.size()) {
    out.fail("paper_suite digest has " + std::to_string(expected.size()) +
             " cells, the matrix " + std::to_string(cells.size()));
  }

  if (args.mode == Mode::Traced) {
    (void)setup_once();
    long launches = 0;
    std::uint64_t instr = 0;
    const std::int64_t t0 = gpc::log::now_ns();
    (void)run_pass(cells, expected, out, &launches, &instr);
    const std::int64_t t1 = gpc::log::now_ns();
    const SpanSummary s = summarize_spans(t0, t1);
    add_self_times(s, out);
    const auto total = [&](const char* l) {
      const auto it = s.layers.find(l);
      return it == s.layers.end() ? 0.0 : it->second.total_s;
    };
    const auto self = [&](const char* l) {
      const auto it = s.layers.find(l);
      return it == s.layers.end() ? 0.0 : it->second.self_s;
    };
    out.add("cuda.launch_s", total(layer::kCudaLaunch));
    out.add("ocl.enqueue_s", total(layer::kOclEnqueue));
    out.add("compiler.build_s", total(layer::kCompile));
    out.add("runtime.xfer_s", total("runtime.xfer"));
    out.add("harness.other_s", self(layer::kBenchRun));
    out.add("harness.upload_ms", s.h2d_s * 1e3);
    return;
  }

  constexpr int kSetupReps = 5;
  std::vector<double> setups;
  for (int i = 0; i < (args.mode == Mode::E2e ? kSetupReps : 1); ++i) {
    rotate_cpus(static_cast<std::size_t>(i), 1);
    setups.push_back(setup_once());
  }

  const double budget = args.mode == Mode::E2e ? args.seconds
                                               : args.seconds / 2;
  std::vector<std::vector<double>> cell_s(cells.size());
  std::vector<double> pass_s;
  Pass last;
  long launches = 0;
  std::uint64_t instr = 0;
  const std::size_t threads = gpc::ThreadPool::shared().size() + 1;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  do {
    rotate_cpus(pass_s.size(), threads);
    Pass p = run_pass(cells, expected, out, &launches, &instr);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cell_s[i].push_back(p.cell_s[i]);
    }
    pass_s.push_back(p.total_s);
    last = std::move(p);
  } while (now_s() - t0 < budget || pass_s.size() < 2);
  const double wall = now_s() - t0;
  const double cpu = process_cpu_s() - cpu0;

  // One pass's time is the sum over cells of each cell's fast-quartile time.
  std::vector<double> unit(cells.size());
  double wall_s = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    unit[i] = fast_quartile_mean(cell_s[i]);
    wall_s += unit[i];
  }

  if (args.mode == Mode::Layers) {
    std::map<std::string, double> per_bench;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      per_bench[cells[i].bench->name()] += unit[i];
    }
    for (const auto& [name, s] : per_bench) {
      out.add("harness.run_s." + name, s);
    }
    out.add("pool.cpu_util",
            cpu / (wall * static_cast<double>(
                              gpc::ThreadPool::shared().size())));
    out.add("sim.launches", static_cast<double>(launches));
    out.add("sim.warp_instr", static_cast<double>(instr));
    // The unit the traced process times: one pass, unpinned.
    use_all_cpus();
    out.add("trace.untraced_wall_s",
            run_pass(cells, expected, out, &launches, &instr).total_s);
    return;
  }

  // Per-launch host time: each cell's time spread over its launches, so
  // every launch of the pass is one sample.
  std::vector<double> per_launch_us;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int n = last.cell_launches[i];
    per_launch_us.insert(per_launch_us.end(), static_cast<std::size_t>(n),
                         unit[i] / n * 1e6);
  }
  out.add("setup_s", median(setups));
  out.add("wall_s", wall_s);
  out.add("sim_minstr_per_s", static_cast<double>(instr) / wall_s * 1e-6);
  out.add("launches_per_s", static_cast<double>(launches) / wall_s);
  out.add("launch_p50_us", quantile(per_launch_us, 0.50));
  out.add("launch_p99_us", quantile(per_launch_us, 0.99));
  std::fprintf(stderr,
               "paper_suite: %zu passes, pass median %.3f s min %.3f s, "
               "cell-sum fqm %.3f s\n",
               pass_s.size(), median(pass_s), quantile(pass_s, 0), wall_s);
}

}  // namespace perfbench
