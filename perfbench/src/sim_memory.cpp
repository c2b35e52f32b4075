// sim_memory: few, large launches straight into sim::launch_kernel on one
// simulator thread, on GTX480 (L1 and L2 modelled) and GTX280 (coalescer
// only). Three memory behaviours, each with index and value arrays several
// times the 768 KB L2:
//   spmv  - CSR spmv_scalar with textures off: gather reads.
//   tranp - naive transpose: coalesced reads, strided writes.
//   bfs   - bfs_expand over a seeded frontier (restored before every
//           launch): divergent, data-dependent reads and scattered writes.
// The memory path does most of the work; harness, runtimes and serve are
// bypassed. Inputs come from --seed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "arch/device_spec.h"
#include "bench.h"
#include "bench_kernels/kernels.h"
#include "common/log.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "prof/prof.h"
#include "sim/decode.h"
#include "sim/launch.h"
#include "sim/memory.h"
#include "spans.h"

namespace perfbench {
namespace {

using gpc::sim::KernelArg;

constexpr std::uint64_t kDigestSeed = 1;  // seed of the committed counters
constexpr int kBlock = 128;

constexpr int kSpmvRows = 1 << 15;
constexpr int kSpmvCols = 1 << 20;  // x[] is 4 MB: gathers miss the L2
constexpr int kTranpN = 1024;       // 4 MB in, 4 MB out
constexpr int kBfsN = 1 << 17;
constexpr int kBfsLevel = 3;  // cost of every frontier vertex

/// Host-side inputs and reference outputs, all generated from the seed.
struct Inputs {
  std::vector<std::int32_t> rowptr, cols;
  std::vector<float> vals, x, y_ref;
  std::vector<float> mat, mat_t_ref;
  std::vector<std::int32_t> g_rowptr, g_cols, frontier, visited, cost,
      updating;
  std::vector<std::int32_t> cost_ref, updating_ref;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  gpc::Rng rng(seed);
  // spmv: 8..23 non-zeros per row at uniformly random columns.
  in.rowptr.resize(kSpmvRows + 1);
  for (int r = 0; r < kSpmvRows; ++r) {
    in.rowptr[r] = static_cast<std::int32_t>(in.cols.size());
    const int nnz = 8 + static_cast<int>(rng.next_below(16));
    for (int e = 0; e < nnz; ++e) {
      in.cols.push_back(static_cast<std::int32_t>(rng.next_below(kSpmvCols)));
      in.vals.push_back(rng.next_float(-1.0f, 1.0f));
    }
  }
  in.rowptr[kSpmvRows] = static_cast<std::int32_t>(in.cols.size());
  in.x.resize(kSpmvCols);
  for (float& v : in.x) v = rng.next_float(-1.0f, 1.0f);
  in.y_ref.resize(kSpmvRows);
  for (int r = 0; r < kSpmvRows; ++r) {
    float sum = 0;
    for (int e = in.rowptr[r]; e < in.rowptr[r + 1]; ++e) {
      sum += in.vals[e] * in.x[in.cols[e]];
    }
    in.y_ref[r] = sum;
  }

  // tranp
  in.mat.resize(static_cast<std::size_t>(kTranpN) * kTranpN);
  for (float& v : in.mat) v = rng.next_float();
  in.mat_t_ref.resize(in.mat.size());
  for (int y = 0; y < kTranpN; ++y) {
    for (int x = 0; x < kTranpN; ++x) {
      in.mat_t_ref[static_cast<std::size_t>(x) * kTranpN + y] =
          in.mat[static_cast<std::size_t>(y) * kTranpN + x];
    }
  }

  // bfs: random out-degree 0..15; half the vertices in the frontier, all at
  // one level, so the kernel's benign write races store equal values.
  in.g_rowptr.resize(kBfsN + 1);
  for (int v = 0; v < kBfsN; ++v) {
    in.g_rowptr[v] = static_cast<std::int32_t>(in.g_cols.size());
    const int deg = static_cast<int>(rng.next_below(16));
    for (int e = 0; e < deg; ++e) {
      in.g_cols.push_back(static_cast<std::int32_t>(rng.next_below(kBfsN)));
    }
  }
  in.g_rowptr[kBfsN] = static_cast<std::int32_t>(in.g_cols.size());
  in.frontier.assign(kBfsN, 0);
  in.visited.assign(kBfsN, 0);
  in.cost.assign(kBfsN, -1);
  in.updating.assign(kBfsN, 0);
  for (int v = 0; v < kBfsN; ++v) {
    const std::uint32_t r = rng.next_below(4);
    if (r < 2) {  // frontier vertices are visited
      in.frontier[v] = 1;
      in.visited[v] = 1;
      in.cost[v] = kBfsLevel;
    } else if (r == 2) {  // visited earlier
      in.visited[v] = 1;
      in.cost[v] = kBfsLevel - 1;
    }
  }
  in.cost_ref = in.cost;
  in.updating_ref = in.updating;
  for (int v = 0; v < kBfsN; ++v) {
    if (!in.frontier[v]) continue;
    for (int e = in.g_rowptr[v]; e < in.g_rowptr[v + 1]; ++e) {
      const int j = in.g_cols[e];
      if (!in.visited[j]) {
        in.cost_ref[j] = kBfsLevel + 1;
        in.updating_ref[j] = 1;
      }
    }
  }
  return in;
}

template <typename T>
std::uint64_t upload(gpc::sim::DeviceMemory& mem, const std::vector<T>& v) {
  const std::uint64_t p = mem.alloc(v.size() * sizeof(T));
  mem.write(p, v.data(), v.size() * sizeof(T));
  return p;
}

template <typename T>
std::vector<T> download(gpc::sim::DeviceMemory& mem, std::uint64_t p,
                        std::size_t n) {
  std::vector<T> v(n);
  mem.read(p, v.data(), n * sizeof(T));
  return v;
}

bool close_enough(const std::vector<float>& got,
                  const std::vector<float>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float d = got[i] > want[i] ? got[i] - want[i] : want[i] - got[i];
    const float w = want[i] < 0 ? -want[i] : want[i];
    if (d > 1e-5f + 1e-5f * w) return false;
  }
  return got.size() == want.size();
}

enum Kernel { kSpmv, kTranp, kBfs, kNumKernels };
const char* const kKernelNames[] = {"spmv", "tranp", "bfs"};

/// Device buffers for one set of inputs, the compiled kernels and the
/// launch of each (kernel, device) unit.
class Fixture {
 public:
  explicit Fixture(const Inputs& in) : in_(in), mem_(std::size_t{96} << 20) {
    d_rowptr_ = upload(mem_, in.rowptr);
    d_cols_ = upload(mem_, in.cols);
    d_vals_ = upload(mem_, in.vals);
    d_x_ = upload(mem_, in.x);
    d_y_ = mem_.alloc(in.y_ref.size() * 4);
    d_mat_ = upload(mem_, in.mat);
    d_mat_t_ = mem_.alloc(in.mat.size() * 4);
    d_g_rowptr_ = upload(mem_, in.g_rowptr);
    d_g_cols_ = upload(mem_, in.g_cols);
    d_frontier_ = upload(mem_, in.frontier);
    d_updating_ = upload(mem_, in.updating);
    d_visited_ = upload(mem_, in.visited);
    d_cost_ = upload(mem_, in.cost);
    gpc::compiler::CompileOptions no_tex;
    no_tex.enable_textures = false;
    namespace k = gpc::bench::kernels;
    const auto tc = gpc::arch::Toolchain::Cuda;
    ck_[kSpmv] = gpc::compiler::compile(k::spmv_scalar(), tc, no_tex);
    ck_[kTranp] = gpc::compiler::compile(k::tranp(false, 16), tc);
    ck_[kBfs] = gpc::compiler::compile(k::bfs_expand(), tc);
    for (const auto& ck : ck_) (void)gpc::sim::decoded(ck);
  }

  /// Restores what the previous launch of `k` overwrote (untimed).
  void reset(Kernel k) {
    if (k != kBfs) return;
    mem_.write(d_frontier_, in_.frontier.data(), in_.frontier.size() * 4);
    mem_.write(d_updating_, in_.updating.data(), in_.updating.size() * 4);
    mem_.write(d_cost_, in_.cost.data(), in_.cost.size() * 4);
  }

  gpc::sim::LaunchResult launch(Kernel k, const gpc::arch::DeviceSpec& dev) {
    gpc::sim::LaunchConfig cfg;
    std::vector<KernelArg> args;
    switch (k) {
      case kSpmv:
        cfg.grid = {kSpmvRows / kBlock, 1, 1};
        cfg.block = {kBlock, 1, 1};
        args = {KernelArg::ptr(d_rowptr_), KernelArg::ptr(d_cols_),
                KernelArg::ptr(d_vals_),   KernelArg::ptr(d_x_),
                KernelArg::ptr(d_y_),      KernelArg::s32(kSpmvRows)};
        break;
      case kTranp:
        cfg.grid = {kTranpN / 16, kTranpN / 16, 1};
        cfg.block = {16, 16, 1};
        args = {KernelArg::ptr(d_mat_), KernelArg::ptr(d_mat_t_),
                KernelArg::s32(kTranpN)};
        break;
      default:
        cfg.grid = {kBfsN / kBlock, 1, 1};
        cfg.block = {kBlock, 1, 1};
        args = {KernelArg::ptr(d_g_rowptr_), KernelArg::ptr(d_g_cols_),
                KernelArg::ptr(d_frontier_), KernelArg::ptr(d_updating_),
                KernelArg::ptr(d_visited_),  KernelArg::ptr(d_cost_),
                KernelArg::s32(kBfsN)};
        break;
    }
    gpc::prof::ScopedSpan span("perfbench", layer::kSimLaunch);
    return gpc::sim::launch_kernel(dev, runtime_, ck_[k], cfg, args, mem_);
  }

  /// Compares the launch's outputs with the host reference.
  bool verify(Kernel k) {
    switch (k) {
      case kSpmv:
        return close_enough(download<float>(mem_, d_y_, in_.y_ref.size()),
                            in_.y_ref);
      case kTranp:
        return download<float>(mem_, d_mat_t_, in_.mat.size()) ==
               in_.mat_t_ref;
      default:
        return download<std::int32_t>(mem_, d_cost_, kBfsN) ==
                   in_.cost_ref &&
               download<std::int32_t>(mem_, d_updating_, kBfsN) ==
                   in_.updating_ref &&
               download<std::int32_t>(mem_, d_frontier_, kBfsN) ==
                   std::vector<std::int32_t>(kBfsN, 0);
    }
  }

  const gpc::compiler::CompiledKernel& compiled(Kernel k) const {
    return ck_[k];
  }

 private:
  const Inputs& in_;
  gpc::sim::DeviceMemory mem_;
  gpc::arch::RuntimeSpec runtime_ = gpc::arch::cuda_runtime();
  gpc::compiler::CompiledKernel ck_[kNumKernels];
  std::uint64_t d_rowptr_ = 0, d_cols_ = 0, d_vals_ = 0, d_x_ = 0, d_y_ = 0,
                d_mat_ = 0, d_mat_t_ = 0, d_g_rowptr_ = 0, d_g_cols_ = 0,
                d_frontier_ = 0, d_updating_ = 0, d_visited_ = 0, d_cost_ = 0;
};

struct Unit {
  Kernel kernel;
  const gpc::arch::DeviceSpec* device;
  std::string key;  // "<kernel>.<device>"
  std::vector<double> seconds;
  gpc::sim::BlockStats stats;  // of the first launch
};

std::vector<Unit> make_units() {
  std::vector<Unit> units;
  for (int k = 0; k < kNumKernels; ++k) {
    for (const gpc::arch::DeviceSpec* d :
         {&gpc::arch::gtx480(), &gpc::arch::gtx280()}) {
      std::string dev = d->short_name;
      std::transform(dev.begin(), dev.end(), dev.begin(), ::tolower);
      units.push_back({static_cast<Kernel>(k), d,
                       std::string(kKernelNames[k]) + "." + dev, {}, {}});
    }
  }
  return units;
}

/// The exact simulated counters of one unit (seed-determined).
std::string counter_line(const Unit& u) {
  const auto& s = u.stats;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %llu %llu %llu %llu %llu %llu",
                u.key.c_str(),
                static_cast<unsigned long long>(warp_instr(s)),
                static_cast<unsigned long long>(s.mem_issues),
                static_cast<unsigned long long>(s.dram_transactions),
                static_cast<unsigned long long>(s.dram_read_bytes),
                static_cast<unsigned long long>(s.dram_write_bytes),
                static_cast<unsigned long long>(s.l1_hits));
  return buf;
}

/// Runs every unit once; the first pass records each unit's counters and
/// later passes must reproduce them exactly.
void run_pass(Fixture& fx, std::vector<Unit>& units, bool first, Output& out) {
  for (Unit& u : units) {
    fx.reset(u.kernel);
    const double t0 = now_s();
    const auto r = fx.launch(u.kernel, *u.device);
    u.seconds.push_back(now_s() - t0);
    if (first) {
      u.stats = r.stats.total;
    } else {
      const gpc::sim::BlockStats& s = r.stats.total;
      out.check(warp_instr(s) == warp_instr(u.stats) &&
                    s.mem_issues == u.stats.mem_issues &&
                    s.dram_transactions == u.stats.dram_transactions &&
                    s.l1_hits == u.stats.l1_hits,
                "sim_memory " + u.key + ": counters changed between launches");
    }
    out.check(fx.verify(u.kernel),
              "sim_memory " + u.key + ": output differs from host reference");
  }
}

}  // namespace

void run_sim_memory(const Args& args, Output& out) {
  constexpr int kSetupReps = 5;
  std::vector<double> setups;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (args.mode == Mode::E2e ? kSetupReps : 1); ++i) {
    fx.reset();
    in.reset();
    rotate_cpus(static_cast<std::size_t>(i), 1);
    const double t0 = now_s();
    in = std::make_unique<Inputs>(make_inputs(args.seed));
    fx = std::make_unique<Fixture>(*in);
    setups.push_back(now_s() - t0);
  }

  std::vector<Unit> units = make_units();
  if (args.mode == Mode::Digest) {
    Output scratch;
    run_pass(*fx, units, true, scratch);
    for (const Unit& u : units) std::printf("%s\n", counter_line(u).c_str());
    return;
  }
  if (args.mode == Mode::Traced) {
    run_pass(*fx, units, true, out);  // warm, as the untraced passes are
    const std::int64_t t0 = gpc::log::now_ns();
    run_pass(*fx, units, false, out);
    add_self_times(summarize_spans(t0, gpc::log::now_ns()), out);
    return;
  }

  const double budget = args.mode == Mode::E2e ? args.seconds
                                               : args.seconds / 2;
  std::vector<double> pass_s;
  const double t0 = now_s();
  do {
    rotate_cpus(pass_s.size(), 1);
    const double p0 = now_s();
    run_pass(*fx, units, pass_s.empty(), out);
    pass_s.push_back(now_s() - p0);
  } while (now_s() - t0 < budget || pass_s.size() < 4);

  if (args.seed == kDigestSeed) {
    const std::vector<std::string> want =
        read_expected(args, "sim_memory_seed1.txt");
    for (std::size_t i = 0; i < units.size(); ++i) {
      const std::string got = counter_line(units[i]);
      const std::string line = i < want.size() ? want[i] : "";
      out.check(got == line, "sim_memory counters: got '" + got +
                                 "', want '" + line + "'");
    }
  }

  double wall_s = 0;
  std::uint64_t instr = 0;
  std::vector<double> unit_s;
  for (const Unit& u : units) {
    unit_s.push_back(fast_quartile_mean(u.seconds));
    wall_s += unit_s.back();
    instr += warp_instr(u.stats);
  }

  if (args.mode == Mode::Layers) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& u = units[i];
      const gpc::sim::BlockStats& s = u.stats;
      out.add("sim.launch_ms." + u.key, unit_s[i] * 1e3);
      out.add("sim.ns_per_mem_instr." + u.key,
              unit_s[i] * 1e9 / static_cast<double>(s.mem_issues));
      out.add("sim.mem_instr." + u.key, static_cast<double>(s.mem_issues));
      out.add("sim.dram_transactions." + u.key,
              static_cast<double>(s.dram_transactions));
      if (u.device->has_l1) {
        const double reads = static_cast<double>(s.dram_read_bytes) /
                             u.device->dram_segment_bytes;
        out.add("sim.l1_hit_ratio." + u.key,
                static_cast<double>(s.l1_hits) /
                    (static_cast<double>(s.l1_hits) + reads));
      }
    }
    // Compile and decode cost of each kernel, both toolchains per sample.
    namespace k = gpc::bench::kernels;
    const gpc::kernel::KernelDef defs[] = {k::spmv_scalar(), k::tranp(false, 16),
                                           k::bfs_expand()};
    for (int i = 0; i < kNumKernels; ++i) {
      std::vector<double> compile_us, decode_us;
      for (int rep = 0; rep < 20; ++rep) {
        for (auto tc : {gpc::arch::Toolchain::Cuda,
                        gpc::arch::Toolchain::OpenCl}) {
          const double c0 = now_s();
          const auto ck = gpc::compiler::compile(defs[i], tc);
          const double c1 = now_s();
          (void)gpc::sim::decoded(ck);
          compile_us.push_back((c1 - c0) * 1e6);
          decode_us.push_back((now_s() - c1) * 1e6);
        }
      }
      out.add(std::string("compiler.compile_us.") + kKernelNames[i],
              median(compile_us));
      out.add(std::string("sim.decode_us.") + kKernelNames[i],
              median(decode_us));
    }
    out.add("sim.launches", static_cast<double>(units.size()));
    out.add("sim.warp_instr", static_cast<double>(instr));
    // The unit the traced process times: one pass, unpinned.
    use_all_cpus();
    const double p0 = now_s();
    run_pass(*fx, units, false, out);
    out.add("trace.untraced_wall_s", now_s() - p0);
    return;
  }

  out.add("setup_s", median(setups));
  out.add("wall_s", wall_s);
  out.add("sim_minstr_per_s", static_cast<double>(instr) / wall_s * 1e-6);
  out.add("launches_per_s", static_cast<double>(units.size()) / wall_s);
  std::vector<double> unit_us;
  for (double s : unit_s) unit_us.push_back(s * 1e6);
  out.add("launch_p50_us", quantile(unit_us, 0.50));
  out.add("launch_p99_us", quantile(unit_us, 0.99));
  std::fprintf(stderr, "sim_memory: %zu passes, pass median %.4f s, "
                       "unit-sum fqm %.4f s\n",
               pass_s.size(), median(pass_s), wall_s);
  for (const Unit& u : units) {
    std::fprintf(stderr, "  %s\n", counter_line(u).c_str());
  }
}

}  // namespace perfbench
