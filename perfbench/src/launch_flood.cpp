// launch_flood: per-launch overhead. One client thread keeps a closed-loop
// window of kWindow served jobs in flight (it waits for the oldest before
// submitting the next), against a server with kWorkers workers. Each job is
// a one-block, 32-thread ping with one read-back buffer; jobs alternate
// CUDA and OpenCL and carry a seeded key the read-back must reflect. The
// same process times direct pings through each layer underneath serve.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/device_spec.h"
#include "bench.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "cuda/runtime.h"
#include "harness/session.h"
#include "kernel/builder.h"
#include "ocl/opencl.h"
#include "prof/prof.h"
#include "serve/serve.h"
#include "sim/decode.h"
#include "sim/launch.h"
#include "spans.h"

namespace perfbench {
namespace {

using gpc::arch::Toolchain;
using gpc::sim::KernelArg;

constexpr int kWorkers = 2;
constexpr int kWindow = 4;
constexpr int kLanes = 32;
constexpr int kJobsPerPass = 1000;  // wall_s is seconds per this many jobs

std::shared_ptr<const gpc::kernel::KernelDef> ping_kernel() {
  gpc::kernel::KernelBuilder kb("flood_ping");
  auto out = kb.ptr_param("out", gpc::ir::Type::S32);
  auto key = kb.s32_param("key");
  kb.st(out, kb.global_id_x(), kb.tid_x() + key);
  return std::make_shared<gpc::kernel::KernelDef>(kb.finish());
}

gpc::serve::ServeConfig server_config() {
  gpc::serve::ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.shards = 1;
  cfg.queue_cap = 4 * kWindow;
  return cfg;
}

/// Everything the timed region needs, built by set-up.
struct Rig {
  std::shared_ptr<const gpc::kernel::KernelDef> kernel = ping_kernel();
  std::unique_ptr<gpc::serve::Server> server;
  std::unique_ptr<gpc::harness::DeviceSession> session;  // CUDA, GTX480
  std::unique_ptr<gpc::cuda::Context> cuda;
  std::unique_ptr<gpc::ocl::Context> ocl_ctx;
  std::unique_ptr<gpc::ocl::CommandQueue> ocl_queue;
  std::unique_ptr<gpc::ocl::Program> ocl_program;
  gpc::compiler::CompiledKernel session_ck, cuda_ck;
  std::uint64_t session_buf = 0, cuda_buf = 0;
  gpc::ocl::Buffer ocl_buf;
  std::atomic<long> completions{0};  // completion callbacks of flood jobs
};

gpc::serve::JobSpec make_job(const Rig& rig, std::int32_t key, bool opencl) {
  gpc::serve::JobSpec job;
  job.kernel = rig.kernel;
  job.device = &gpc::arch::gtx480();
  job.toolchain = opencl ? Toolchain::OpenCl : Toolchain::Cuda;
  job.block = {kLanes, 1, 1};
  job.args.push_back(gpc::serve::JobArg::buffer(
      std::vector<unsigned char>(kLanes * 4, 0), true));
  job.args.push_back(gpc::serve::JobArg::scalar_arg(KernelArg::s32(key)));
  return job;
}

bool readback_ok(const gpc::serve::Completion& c, std::int32_t key) {
  if (c.cls != gpc::serve::JobClass::Ok || c.outputs.size() != 1 ||
      c.outputs[0].size() != kLanes * 4) {
    return false;
  }
  for (int i = 0; i < kLanes; ++i) {
    std::int32_t v = 0;
    std::memcpy(&v, c.outputs[0].data() + 4 * i, 4);
    if (v != i + key) return false;
  }
  return true;
}

/// Set-up: start the server, warm its compile cache with one job per
/// toolchain, and open and compile the direct sessions.
std::unique_ptr<Rig> set_up() {
  auto rig = std::make_unique<Rig>();
  rig->server = std::make_unique<gpc::serve::Server>(server_config());
  for (bool opencl : {false, true}) {
    const gpc::serve::JobHandle h = rig->server->submit(make_job(*rig, 0, opencl));
    const gpc::serve::Completion& c = h.wait();
    if (!readback_ok(c, 0)) {
      throw gpc::InvalidArgument("launch_flood warm-up job failed: " +
                                 c.status + " " + c.detail);
    }
  }
  const auto& dev = gpc::arch::gtx480();
  rig->session =
      std::make_unique<gpc::harness::DeviceSession>(dev, Toolchain::Cuda);
  rig->session_ck = rig->session->compile(*rig->kernel);
  rig->session_buf = rig->session->alloc(kLanes * 4);
  rig->cuda = std::make_unique<gpc::cuda::Context>(dev);
  rig->cuda_ck = rig->cuda->compile(*rig->kernel);
  rig->cuda_buf = rig->cuda->malloc(kLanes * 4);
  rig->ocl_ctx = std::make_unique<gpc::ocl::Context>(dev);
  rig->ocl_queue = std::make_unique<gpc::ocl::CommandQueue>(*rig->ocl_ctx);
  rig->ocl_program =
      std::make_unique<gpc::ocl::Program>(*rig->ocl_ctx, *rig->kernel);
  if (rig->ocl_program->build() != gpc::ocl::Status::Success) {
    throw gpc::InvalidArgument("launch_flood: OpenCL ping did not build");
  }
  rig->ocl_buf = rig->ocl_ctx->create_buffer(kLanes * 4);
  return rig;
}

struct Flood {
  LatencyHistogram latency_us;  // submit -> complete
  LatencyHistogram queue_us;    // submit -> dequeue
  LatencyHistogram service_us;  // dequeue -> complete
  std::vector<double> window_s;  // time per kJobsPerPass completions
  long jobs = 0;
  double seconds = 0;
  std::uint64_t instr = 0;
};

/// Closed loop: keep kWindow jobs in flight until `budget` seconds have
/// passed or `max_jobs` were submitted, then drain. Every job must complete
/// OK exactly once with the right read-back.
Flood flood(Rig& rig, gpc::Rng& rng, double budget, long max_jobs,
            Output& out) {
  struct InFlight {
    gpc::serve::JobHandle handle;
    std::int32_t key;
  };
  Flood f;
  // Client and workers share one CPU: wake-ups between vCPUs, not serve,
  // would otherwise set the latency tail (see perfbench/README.md).
  rotate_cpus(0, 1);
  std::deque<InFlight> window;
  long submitted = 0;
  const long callbacks0 = rig.completions.load();
  const double t0 = now_s();
  double window_start = t0;
  const auto submit = [&] {
    const auto key = static_cast<std::int32_t>(rng.next_below(1u << 30));
    auto job = make_job(rig, key, (submitted & 1) != 0);
    job.on_complete = [&rig](const gpc::serve::Completion&) {
      rig.completions.fetch_add(1, std::memory_order_relaxed);
    };
    gpc::prof::ScopedSpan span("perfbench", layer::kServeSubmit);
    window.push_back({rig.server->submit(std::move(job)), key});
    ++submitted;
  };
  for (int i = 0; i < kWindow; ++i) submit();
  while (!window.empty()) {
    InFlight j = std::move(window.front());
    window.pop_front();
    const gpc::serve::Completion* c;
    {
      gpc::prof::ScopedSpan span("perfbench", layer::kServeWait);
      c = &j.handle.wait();
    }
    out.check(readback_ok(*c, j.key),
              "launch_flood job " + std::to_string(c->job_id) + " ended " +
                  c->status + " " + c->detail);
    f.latency_us.add(static_cast<double>(c->complete_ns - c->submit_ns) * 1e-3);
    f.queue_us.add(static_cast<double>(c->start_ns - c->submit_ns) * 1e-3);
    f.service_us.add(static_cast<double>(c->complete_ns - c->start_ns) * 1e-3);
    f.instr += warp_instr(c->result.stats.total);
    if (++f.jobs % kJobsPerPass == 0) {
      const double now = now_s();
      f.window_s.push_back(now - window_start);
      window_start = now;
    }
    if (now_s() - t0 < budget && submitted < max_jobs) submit();
  }
  f.seconds = now_s() - t0;
  // Exactly once: one completion callback per job. Callbacks run just after
  // the handle is released, so give the last few a moment to land.
  const double deadline = now_s() + 1.0;
  while (rig.completions.load() - callbacks0 < submitted && now_s() < deadline) {
    std::this_thread::yield();
  }
  const long callbacks = rig.completions.load() - callbacks0;
  out.check(callbacks == submitted,
            "launch_flood: " + std::to_string(callbacks) +
                " completion callbacks for " + std::to_string(submitted) +
                " jobs");
  return f;
}

/// p50 in microseconds of `reps` calls of `fn`, each inside a span.
template <typename Fn>
double ping_p50_us(const char* span_name, int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    {
      gpc::prof::ScopedSpan span("perfbench", span_name);
      fn();
    }
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

/// Direct pings through each layer below serve, each its own span.
void direct_pings(Rig& rig, int reps, Output* out) {
  const auto& dev = gpc::arch::gtx480();
  const auto runtime = gpc::arch::cuda_runtime();
  gpc::sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {kLanes, 1, 1};
  const std::vector<KernelArg> session_args = {
      KernelArg::ptr(rig.session_buf), KernelArg::s32(7)};
  const std::vector<KernelArg> cuda_args = {KernelArg::ptr(rig.cuda_buf),
                                            KernelArg::s32(7)};
  const std::vector<KernelArg> ocl_args = {KernelArg::ptr(rig.ocl_buf.addr),
                                           KernelArg::s32(7)};
  const std::vector<unsigned char> bytes(kLanes * 4, 1);
  gpc::sim::LaunchStats stats;

  const double harness_us = ping_p50_us(layer::kHarnessLaunch, reps, [&] {
    (void)rig.session->launch(rig.session_ck, cfg.grid, cfg.block,
                              session_args);
  });
  const double cuda_us = ping_p50_us(layer::kCudaLaunch, reps, [&] {
    (void)rig.cuda->launch(rig.cuda_ck, cfg, cuda_args);
  });
  bool ocl_ok = true;
  const double ocl_us = ping_p50_us(layer::kOclEnqueue, reps, [&] {
    ocl_ok &= rig.ocl_queue->enqueue_nd_range(
                  rig.ocl_program->kernel(), {kLanes, 1, 1}, {kLanes, 1, 1},
                  ocl_args) == gpc::ocl::Status::Success;
  });
  const double sim_us = ping_p50_us(layer::kSimLaunch, reps, [&] {
    stats = gpc::sim::launch_kernel(dev, runtime, rig.cuda_ck, cfg, cuda_args,
                                    rig.cuda->memory())
                .stats;
  });
  const double timing_us = ping_p50_us(layer::kSimTiming, reps, [&] {
    (void)gpc::sim::time_kernel(dev, runtime, rig.cuda_ck, cfg, stats);
  });
  (void)ping_p50_us(layer::kHarnessWrite, reps, [&] {
    rig.session->write(rig.session_buf, bytes.data(), bytes.size());
  });
  const int builds = std::max(1, reps / 20);
  (void)ping_p50_us(layer::kHarnessCompile, builds,
                    [&] { (void)rig.session->compile(*rig.kernel); });
  const double compile_us = ping_p50_us(layer::kCompile, builds, [&] {
    (void)gpc::compiler::compile(*rig.kernel, Toolchain::Cuda);
  });
  // Decode needs a kernel whose decode cache is empty: copy, then clear it.
  std::vector<double> decode_us;
  for (int i = 0; i < builds; ++i) {
    gpc::compiler::CompiledKernel ck = rig.cuda_ck;
    ck.sim_cache.reset();
    const double t0 = now_s();
    {
      gpc::prof::ScopedSpan span("perfbench", layer::kDecode);
      (void)gpc::sim::decoded(ck);
    }
    decode_us.push_back((now_s() - t0) * 1e6);
  }
  if (out == nullptr) return;
  out->check(ocl_ok, "launch_flood: direct OpenCL ping failed");
  out->add("harness.launch_us", harness_us);
  out->add("cuda.launch_us", cuda_us);
  out->add("ocl.enqueue_us", ocl_us);
  out->add("sim.launch_us", sim_us);
  out->add("sim.timing_us", timing_us);
  out->add("compiler.compile_us.ping", compile_us);
  out->add("sim.decode_us.ping", median(decode_us));
}

}  // namespace

void run_launch_flood(const Args& args, Output& out) {
  constexpr int kSetupReps = 25;
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < (args.mode == Mode::E2e ? kSetupReps : 1); ++i) {
    rig.reset();
    rotate_cpus(static_cast<std::size_t>(i), 1);  // one CPU, like the flood
    const double t0 = now_s();
    rig = set_up();
    setups.push_back(now_s() - t0);
  }
  gpc::Rng rng(args.seed);
  const auto before = rig->server->stats();

  // The layer unit: a short flood plus direct pings through every layer.
  constexpr long kUnitJobs = 4000;
  constexpr int kUnitPings = 2000;
  if (args.mode != Mode::E2e) {
    // Warm once, then run the unit both the traced and the untraced
    // process time.
    (void)flood(*rig, rng, 1e9, kUnitJobs, out);
    direct_pings(*rig, kUnitPings, nullptr);
  }
  if (args.mode == Mode::Traced) {
    const std::int64_t t0 = gpc::log::now_ns();
    (void)flood(*rig, rng, 1e9, kUnitJobs, out);
    direct_pings(*rig, kUnitPings, nullptr);
    add_self_times(summarize_spans(t0, gpc::log::now_ns()), out);
    return;
  }
  if (args.mode == Mode::Layers) {
    const double t0 = now_s();
    const Flood f = flood(*rig, rng, 1e9, kUnitJobs, out);
    direct_pings(*rig, kUnitPings, &out);
    const double wall = now_s() - t0;
    const auto st = rig->server->stats();
    const auto cache = rig->server->cache_stats();
    out.add("trace.untraced_wall_s", wall);
    out.add("sim.launches", static_cast<double>(kJobsPerPass));
    out.add("sim.warp_instr", static_cast<double>(f.instr) / f.jobs *
                                  kJobsPerPass);
    out.add("serve.queue_us_p50", f.queue_us.quantile(0.50));
    out.add("serve.queue_us_p99", f.queue_us.quantile(0.99));
    out.add("serve.service_us_p50", f.service_us.quantile(0.50));
    out.add("serve.batch_avg",
            static_cast<double>(st.batched_jobs - before.batched_jobs) /
                static_cast<double>(st.batches - before.batches));
    out.add("serve.cache_hit_ratio",
            static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses));
    out.add("serve.shed", static_cast<double>(st.shed));
    out.add("serve.max_queue_depth", static_cast<double>(st.max_queue_depth));
    return;
  }

  const Flood f = flood(*rig, rng, args.seconds, 1L << 40, out);
  const auto st = rig->server->stats();
  out.check(st.shed == 0, "launch_flood: server shed " +
                              std::to_string(st.shed) + " jobs");
  out.check(st.cache_misses == before.cache_misses,
            "launch_flood: the timed region compiled a kernel");
  const double wall_s = fast_quartile_mean(f.window_s);
  out.add("setup_s", median(setups));
  out.add("wall_s", wall_s);
  out.add("sim_minstr_per_s", static_cast<double>(f.instr) / f.jobs *
                                  kJobsPerPass / wall_s * 1e-6);
  out.add("launches_per_s", kJobsPerPass / wall_s);
  out.add("launch_p50_us", f.latency_us.quantile(0.50));
  out.add("launch_p99_us", f.latency_us.quantile(0.99));
  std::fprintf(stderr,
               "launch_flood: %ld jobs in %.3f s (%.0f/s overall, %.0f/s "
               "window median, %.0f/s fast quartile), latency samples %llu\n",
               f.jobs, f.seconds, f.jobs / f.seconds,
               kJobsPerPass / median(f.window_s), kJobsPerPass / wall_s,
               static_cast<unsigned long long>(f.latency_us.count()));
}

}  // namespace perfbench
