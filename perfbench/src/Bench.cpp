//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ---------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  return V[Rank - 1];
}

double mean(std::span<const double> V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

void LatencyLog::add(const std::string &Class, double Us) {
  auto It = Ids.try_emplace(Class, static_cast<uint32_t>(Ids.size())).first;
  Samples.push_back({static_cast<float>(Us), It->second});
}

void LatencyLog::merge(const LatencyLog &O) {
  std::vector<uint32_t> Map(O.Ids.size());
  for (const auto &[Class, Id] : O.Ids)
    Map[Id] = Ids.try_emplace(Class, static_cast<uint32_t>(Ids.size()))
                  .first->second;
  Samples.reserve(Samples.size() + O.Samples.size());
  for (const Sample &S : O.Samples)
    Samples.push_back({S.Us, Map[S.Class]});
}

std::vector<double> LatencyLog::all() const {
  std::vector<double> V;
  V.reserve(Samples.size());
  for (const Sample &S : Samples)
    V.push_back(S.Us);
  return V;
}

std::vector<double> LatencyLog::samplesOf(uint32_t Class) const {
  std::vector<double> V;
  for (const Sample &S : Samples)
    if (S.Class == Class)
      V.push_back(S.Us);
  return V;
}

double LatencyLog::classMedian(const std::string &Class) const {
  auto It = Ids.find(Class);
  return It == Ids.end() ? 0 : median(samplesOf(It->second));
}

double LatencyLog::geomeanOfClassMedians() const {
  double LogSum = 0;
  size_t N = 0;
  for (const auto &[Class, Id] : Ids) {
    double M = median(samplesOf(Id));
    if (M > 0) {
      LogSum += std::log(M);
      ++N;
    }
  }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

double LatencyLog::meanOfClassMedians(const std::string &Prefix) const {
  std::vector<double> Medians;
  for (const auto &[Class, Id] : Ids)
    if (Class.compare(0, Prefix.size(), Prefix) == 0)
      Medians.push_back(median(samplesOf(Id)));
  return mean(Medians);
}

void addEndToEnd(Outcome &Out, const std::vector<double> &SetupS,
                 uint64_t OkOps, double WindowUs, const LatencyLog &Lat,
                 std::vector<double> TailUs,
                 const std::vector<double> &PeakRssMb, uint64_t TableBytes) {
  // p99 needs at least 100 samples beyond it to repeat.
  if (TailUs.size() < 10000)
    std::fprintf(stderr,
                 "perfbench: warning: %zu latency samples; p99 has fewer "
                 "than 100 beyond it\n",
                 TailUs.size());
  double Ratio = Out.Attempted
                     ? static_cast<double>(Out.Attempted - Out.Failed) /
                           static_cast<double>(Out.Attempted)
                     : 0;
  Out.Metrics.push_back({"setup_s", median(SetupS), "s"});
  Out.Metrics.push_back(
      {"ops_per_s", WindowUs > 0 ? 1e6 * static_cast<double>(OkOps) / WindowUs : 0,
       "1/s"});
  Out.Metrics.push_back({"latency_us.p50", quantile(Lat.all(), 0.50), "us"});
  Out.Metrics.push_back(
      {"latency_us.p99", quantile(std::move(TailUs), 0.99), "us"});
  Out.Metrics.push_back(
      {"latency_us.geomean", Lat.geomeanOfClassMedians(), "us"});
  Out.Metrics.push_back({"success_ratio", Ratio, "ratio"});
  Out.Metrics.push_back({"peak_rss_mb", median(PeakRssMb), "MiB"});
  Out.Metrics.push_back(
      {"table_bytes", static_cast<double>(TableBytes), "bytes"});
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (Cpus.size() > 1)
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

void CpuRotation::next(size_t Width) {
  if (Cpus.size() <= Width)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (size_t I = 0; I < Width; ++I)
    CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void resetPeakRss() {
  malloc_trim(0);
  // "5" resets the VmHWM peak to the current RSS (Linux >= 4.0). Where
  // that is not permitted the peak simply includes the oracle's work.
  std::ofstream Clear("/proc/self/clear_refs");
  if (Clear)
    Clear << "5";
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

uint64_t fnv1a(std::span<const uint8_t> Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::span<const LayerMetricName> layerMetricNames() {
  static constexpr LayerMetricName Names[] = {
      {"grammar.parse_us", "us"},
      {"grammar.analysis_us", "us"},
      {"lr.lr0_us", "us"},
      {"lr.states", "count"},
      {"lalr.lookaheads_us", "us"},
      {"lalr.ntindex_us", "us"},
      {"lalr.relations_us", "us"},
      {"lalr.solve_read_us", "us"},
      {"lalr.solve_follow_us", "us"},
      {"lalr.la_union_us", "us"},
      {"lalr.relation_edges", "count"},
      {"lalr.fill_us", "us"},
      {"lr.compress_us", "us"},
      {"net.rtt_build_us", "us"},
      {"net.rtt_parse_us", "us"},
      {"net.rtt_read_us", "us"},
      {"net.rtt_edit_us", "us"},
      {"service.build_us", "us"},
      {"parse.run_us", "us"},
      {"net.wire_build_us", "us"},
      {"net.wire_parse_us", "us"},
      {"parser.tokenize_us", "us"},
      {"parser.drive_us", "us"},
      {"parser.tokens", "count"},
      {"service.cache_hit_ratio", "ratio"},
      {"parse.table_hit_ratio", "ratio"},
      {"net.coalesced_ratio", "ratio"},
      {"net.shed_ratio", "ratio"},
      {"grammar.edit_us", "us"},
      {"grammar.delta_us", "us"},
      {"grammar.print_us", "us"},
      {"pipeline.apply_edit_us.conflict", "us"},
      {"pipeline.apply_edit_us.production", "us"},
      {"pipeline.apply_edit_us.structural", "us"},
      {"pipeline.rebuild_us.conflict", "us"},
      {"pipeline.rebuild_us.production", "us"},
      {"pipeline.rebuild_us.structural", "us"},
      {"pipeline.patched_ratio", "ratio"},
      {"edit.share.conflict", "ratio"},
      {"edit.share.production", "ratio"},
      {"edit.share.structural", "ratio"},
      {"share.grammar_lr_lalr", "ratio"},
      {"share.fill_compress", "ratio"},
      {"share.edit_path", "ratio"},
      {"budget.parts_ratio", "ratio"},
      {"trace.ops_per_s", "1/s"},
  };
  return Names;
}

void addLayerMetrics(Outcome &Out, const LayerValues &Values) {
  for (const LayerMetricName &M : layerMetricNames()) {
    auto It = Values.find(M.Name);
    Out.Metrics.push_back({M.Name, It == Values.end() ? 0.0 : It->second,
                           M.Unit});
  }
  for (const auto &[Name, Value] : Values) {
    bool Known = false;
    for (const LayerMetricName &M : layerMetricNames())
      Known |= Name == M.Name;
    if (!Known)
      std::fprintf(stderr, "perfbench: unlisted layer metric '%s'\n",
                   Name.c_str());
  }
}

} // namespace perfbench
