//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
///
/// \file
/// What every workload shares: the command-line options, the metric
/// record main() prints as JSON, per-class latency logs, quantiles,
/// peak-RSS accounting, and the names of the per-layer metrics (every
/// traced run prints all of them, with 0 for a layer the workload never
/// calls).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <sched.h>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Oracle self-test: corrupt one reference table byte and one Earley
  /// verdict, so a correct program must be reported as failing.
  bool CorruptOracle = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Runs one workload; defined in GenCold.cpp / Serve.cpp.
Outcome runGenCold(const Options &Opts);
Outcome runServeWarm(const Options &Opts);
Outcome runServeEdit(const Options &Opts);

/// Nearest-rank quantile of \p V (0 < Q <= 1); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double mean(std::span<const double> V);

/// Operation latencies keyed by class (grammar x verb, or an edit kind).
/// Samples are kept compact in one vector, so recording them during a
/// timed window adds little to the process's resident set.
class LatencyLog {
public:
  /// Reserves room for \p Expected samples and makes it resident, so
  /// recording neither copies nor grows the resident set: a timed
  /// window's peak RSS then does not depend on how many operations it
  /// completed.
  void reserve(size_t Expected) {
    Samples.resize(Expected);
    Samples.clear();
  }
  void add(const std::string &Class, double Us);
  void merge(const LatencyLog &O);
  size_t size() const { return Samples.size(); }
  std::vector<double> all() const;
  double classMedian(const std::string &Class) const;
  /// Geometric mean over classes of each class's median.
  double geomeanOfClassMedians() const;
  /// Arithmetic mean over the classes whose name starts with \p Prefix
  /// (or all classes) of each class's median; 0 when none match.
  double meanOfClassMedians(const std::string &Prefix = "") const;

private:
  struct Sample {
    float Us;
    uint32_t Class;
  };
  std::vector<double> samplesOf(uint32_t Class) const;

  std::map<std::string, uint32_t> Ids;
  std::vector<Sample> Samples;
};

/// Appends the eight end-to-end metrics of one run: \p SetupS holds each
/// set-up's seconds, \p PeakRssMb each window slice's peak, read as the
/// slice ends, before any statistics are computed; the median of each is
/// reported. p99 is taken over \p TailUs, the samples of one stream of
/// like operations: every operation for gen-cold, the readers' requests
/// for the serve workloads (an author step is three round trips and would
/// put p99 on the boundary between the two).
void addEndToEnd(Outcome &Out, const std::vector<double> &SetupS,
                 uint64_t OkOps, double WindowUs, const LatencyLog &Lat,
                 std::vector<double> TailUs,
                 const std::vector<double> &PeakRssMb, uint64_t TableBytes);

/// Moves the calling thread, and the threads it starts from then on, to
/// the next \p Width CPUs it may run on, in turn. How slow a CPU is on a
/// shared host varies by CPU and by minute, so a run visits every CPU
/// rather than depend on the ones the scheduler picked: gen-cold's one
/// thread moves a pass at a time (Width 1), each serve round's server and
/// clients together (Width 2). Two CPUs are enough for a serve round,
/// whose server threads do the work while the clients wait on replies,
/// and keeping them on two spares the wake-ups across idle CPUs that make
/// loopback round trips slow and uneven. The destructor restores the
/// calling thread's original set.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next(size_t Width = 1);

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Releases freed heap to the OS and restarts the kernel's peak-RSS
/// record, so the peak covers the timed window only: not the oracle's
/// work, and not the servers started and stopped by repeated set-ups.
void resetPeakRss();
double peakRssMb();

uint64_t fnv1a(std::span<const uint8_t> Bytes);

/// Per-layer metrics: name and unit, in the order BENCHMARK.json lists
/// them. A traced run fills a map from these names; layers it never
/// reaches stay 0.
struct LayerMetricName {
  const char *Name;
  const char *Unit;
};
std::span<const LayerMetricName> layerMetricNames();
using LayerValues = std::map<std::string, double>;
void addLayerMetrics(Outcome &Out, const LayerValues &Values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
