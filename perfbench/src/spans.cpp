#include "spans.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/log.h"
#include "prof/prof.h"

namespace perfbench {
namespace {

const char* const kLayers[] = {
    layer::kBenchRun,    layer::kHarnessCompile, layer::kHarnessLaunch,
    layer::kHarnessWrite, layer::kCudaLaunch,    layer::kOclEnqueue,
    "runtime.xfer",      "runtime.alloc",        layer::kCompile,
    layer::kDecode,      layer::kSimLaunch,      layer::kSimTiming,
    layer::kServeSubmit, layer::kServeWait,
};

/// Maps a recorded span to its layer. The program's own spans sit inside
/// the benchmark's: cudaLaunchKernel inside cuda::Context::launch, nvcc and
/// clBuildProgram inside a compile, "bench" inside Benchmark::run.
std::string layer_of(const gpc::prof::Event& e) {
  if (std::strcmp(e.category, "perfbench") == 0) return e.name;
  if (std::strcmp(e.category, "bench") == 0) return layer::kBenchRun;
  if (std::strcmp(e.category, "compile") == 0) return layer::kCompile;
  if (std::strcmp(e.category, "xfer") == 0) return "runtime.xfer";
  if (e.name == "cudaLaunchKernel") return layer::kCudaLaunch;
  if (e.name == "clEnqueueNDRangeKernel") return layer::kOclEnqueue;
  return "runtime.alloc";  // cudaMalloc / clCreateBuffer
}

}  // namespace

SpanSummary summarize_spans(std::int64_t t0_ns, std::int64_t t1_ns) {
  const int me = gpc::log::thread_id();
  std::vector<const gpc::prof::Event*> spans;
  for (const gpc::prof::Event* e : gpc::prof::recorder().snapshot()) {
    if (e->kind == gpc::prof::Event::Kind::Span &&
        e->track == gpc::prof::Track::Host && e->tid == me &&
        e->start_ns >= t0_ns && e->end_ns <= t1_ns) {
      spans.push_back(e);
    }
  }
  // Outer spans first: earlier start, then longer.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                      : a->end_ns > b->end_ns;
  });

  SpanSummary s;
  s.wall_s = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  struct Open {
    const gpc::prof::Event* e;
    std::int64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& o) {
    const std::int64_t dur = o.e->end_ns - o.e->start_ns;
    LayerTimes& t = s.layers[layer_of(*o.e)];
    t.self_s += static_cast<double>(dur - o.child_ns) * 1e-9;
    t.total_s += static_cast<double>(dur) * 1e-9;
    if (std::strcmp(o.e->category, "xfer") == 0 &&
        (o.e->name == "cudaMemcpy(H2D)" ||
         o.e->name == "clEnqueueWriteBuffer")) {
      s.h2d_s += static_cast<double>(dur) * 1e-9;
    }
  };
  for (const gpc::prof::Event* e : spans) {
    while (!stack.empty() && stack.back().e->end_ns <= e->start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e->end_ns - e->start_ns;
    stack.push_back({e, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return s;
}

void add_self_times(const SpanSummary& s, Output& out) {
  double covered = 0;
  for (const char* name : kLayers) {
    const auto it = s.layers.find(name);
    const double self = it == s.layers.end() ? 0.0 : it->second.self_s;
    covered += self;
    out.add(std::string("self_s.") + name, self);
  }
  out.add("self_s.other", s.wall_s - covered);
  out.add("trace.wall_s", s.wall_s);
}

}  // namespace perfbench
