// Per-layer self times from the spans gpc::prof recorded while GPC_PROF was
// armed: the program's own host spans (api / xfer / compile / bench) and the
// benchmark's spans around each call it makes into a layer (category
// "perfbench", named after the layer).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

/// Benchmark-side span names, one per layer entry point the benchmark calls.
namespace layer {
inline constexpr const char* kBenchRun = "bench.run";
inline constexpr const char* kHarnessCompile = "harness.compile";
inline constexpr const char* kHarnessLaunch = "harness.launch";
inline constexpr const char* kHarnessWrite = "harness.write";
inline constexpr const char* kCudaLaunch = "cuda.launch";
inline constexpr const char* kOclEnqueue = "ocl.enqueue";
inline constexpr const char* kCompile = "compiler.compile";
inline constexpr const char* kDecode = "sim.decoded";
inline constexpr const char* kSimLaunch = "sim.launch_kernel";
inline constexpr const char* kSimTiming = "sim.time_kernel";
inline constexpr const char* kServeSubmit = "serve.submit";
inline constexpr const char* kServeWait = "serve.wait";
}  // namespace layer

struct LayerTimes {
  double self_s = 0;   // span time not covered by nested spans
  double total_s = 0;  // whole span time (nested spans included)
};

struct SpanSummary {
  std::map<std::string, LayerTimes> layers;  // keyed by layer name
  double h2d_s = 0;                          // host-to-device copies
  double wall_s = 0;
};

/// Folds every span the calling thread recorded in [t0_ns, t1_ns] (the
/// log::now_ns clock) into per-layer self and total times. Spans of other
/// threads (serve workers) overlap the caller's waits and are not counted.
SpanSummary summarize_spans(std::int64_t t0_ns, std::int64_t t1_ns);

/// Adds self_s.<layer> for every layer, self_s.other (wall minus the
/// layers) and trace.wall_s; the self rows sum to trace.wall_s.
void add_self_times(const SpanSummary& s, Output& out);

}  // namespace perfbench
