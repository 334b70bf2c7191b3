//===- perfbench/src/GenCold.cpp - The gen-cold workload -----------------===//
///
/// \file
/// A generator user's compile time: one thread, closed loop, each
/// operation grammar text -> parseGrammar -> fresh BuildContext ->
/// BuildPipeline {Lalr1, Compress}. Nothing is cached between
/// operations, so grammar, lr and lalr do the work and the serving
/// layers do none.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"

#include "gen/TableSerializer.h"
#include "grammar/GrammarParser.h"
#include "pipeline/BuildPipeline.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>

using namespace lalr;

namespace perfbench {
namespace {

/// A run is this many rounds of set-up followed by an equal slice of the
/// timed window. The host's speed drifts over seconds, so set-ups spread
/// over the run, like the window, and their median repeats.
constexpr int Rounds = 7;
constexpr int WarmupPasses = 20;

const BuildOptions Lalr1Compress = {
    .Kind = TableKind::Lalr1, .Compress = true, .Threads = 0};

struct OpResult {
  bool Ok = false;
  double Us = 0;
  size_t CompressedBytes = 0;
};

/// One untraced operation. The oracle check runs after the clock stops.
OpResult buildOnce(const GenInput &In, bool Check) {
  OpResult Out;
  Timer T;
  DiagnosticEngine Diags;
  std::optional<Grammar> G = parseGrammar(In.Text, Diags, In.Name);
  if (!G) {
    Out.Us = T.elapsedUs();
    return Out;
  }
  BuildContext Ctx(std::move(*G));
  BuildResult R = BuildPipeline(Ctx, Lalr1Compress).run();
  Out.Us = T.elapsedUs();
  Out.Ok = R.ok() && R.Compressed;
  if (Out.Ok) {
    Out.CompressedBytes = R.Compressed->footprintBytes();
    if (Check)
      Out.Ok = fnv1a(serializeTable(R)) == In.RefHash;
  }
  return Out;
}

/// Per-pass sums of each layer's time (µs) and structural counts.
struct PassBudget {
  double OpUs = 0; ///< main path: parse through pipeline run
  double Parse = 0, Analysis = 0, Lr0 = 0, Lookaheads = 0;
  double NtIndex = 0, Relations = 0, SolveRead = 0, SolveFollow = 0;
  double Fill = 0, Compress = 0;
  double States = 0, Edges = 0;
  size_t Ops = 0, Failed = 0;
};

/// One traced operation: the main path split at each layer's public
/// entry point, then the lalr parts, fill and compress re-run on the same
/// automaton (outside OpUs).
void tracedOnce(const GenInput &In, PassBudget &B) {
  ++B.Ops;
  Timer T;
  DiagnosticEngine Diags;
  std::optional<Grammar> G = parseGrammar(In.Text, Diags, In.Name);
  double Parse = T.elapsedUs();
  if (!G) {
    ++B.Failed;
    return;
  }
  BuildContext Ctx(std::move(*G));
  Ctx.setThreads(0);
  T.reset();
  const GrammarAnalysis &An = Ctx.analysis();
  double Analysis = T.elapsedUs();
  T.reset();
  const Lr0Automaton &A = Ctx.lr0();
  double Lr0 = T.elapsedUs();
  T.reset();
  const LalrLookaheads &LA = Ctx.lookaheads();
  double Lookaheads = T.elapsedUs();
  T.reset();
  BuildResult R = BuildPipeline(Ctx, Lalr1Compress).run();
  double Run = T.elapsedUs();
  B.OpUs += Parse + Analysis + Lr0 + Lookaheads + Run;
  B.Parse += Parse;
  B.Analysis += Analysis;
  B.Lr0 += Lr0;
  B.Lookaheads += Lookaheads;
  if (!R.ok() || fnv1a(serializeTable(R)) != In.RefHash)
    ++B.Failed;

  LalrParts P = timeLalrParts(A, An);
  B.NtIndex += P.NtIndexUs;
  B.Relations += P.RelationsUs;
  B.SolveRead += P.SolveReadUs;
  B.SolveFollow += P.SolveFollowUs;
  FillCompress F = timeFillCompress(A, LA);
  B.Fill += F.FillUs;
  B.Compress += F.CompressUs;
  B.States += static_cast<double>(P.States);
  B.Edges += static_cast<double>(P.RelationEdges);
}

double setupOnce(const std::vector<GenInput> &Inputs, CpuRotation &Rot) {
  Timer T;
  for (int P = 0; P < WarmupPasses; ++P) {
    Rot.next();
    for (const GenInput &In : Inputs)
      buildOnce(In, /*Check=*/false);
  }
  return T.elapsedUs() / 1e6;
}

Outcome untraced(const Options &Opts, const std::vector<GenInput> &Inputs) {
  CpuRotation Rot;
  Outcome Out;
  LatencyLog Lat;
  Lat.reserve(static_cast<size_t>(Opts.Seconds * 4000)); // ~1 200 ops/s here
  std::vector<double> Setups, PeakMb;
  std::map<std::string, size_t> Bytes;
  uint64_t OkOps = 0;
  double WindowUs = 0;
  for (int Round = 0; Round < Rounds; ++Round) {
    Setups.push_back(setupOnce(Inputs, Rot));
    resetPeakRss();
    Timer Wall;
    while (Wall.elapsedUs() < Opts.Seconds * 1e6 / Rounds) {
      Rot.next();
      for (const GenInput &In : Inputs) {
        OpResult R = buildOnce(In, /*Check=*/true);
        ++Out.Attempted;
        Lat.add(In.Name, R.Us);
        // Oracle checks run outside the clock; the window is the sum of
        // the operations' own intervals.
        WindowUs += R.Us;
        if (!R.Ok) {
          ++Out.Failed;
          continue;
        }
        ++OkOps;
        Bytes[In.Name] = R.CompressedBytes;
      }
    }
    PeakMb.push_back(peakRssMb());
  }
  uint64_t TableBytes = 0;
  for (const auto &[Name, N] : Bytes)
    TableBytes += N;
  addEndToEnd(Out, Setups, OkOps, WindowUs, Lat, Lat.all(), PeakMb,
              TableBytes);
  return Out;
}

Outcome traced(const Options &Opts, const std::vector<GenInput> &Inputs) {
  CpuRotation Rot;
  setupOnce(Inputs, Rot);
  // Untraced and traced passes alternate, so both see the same host.
  std::vector<double> UntracedPass;
  std::vector<PassBudget> Passes;
  Outcome Out;
  Timer Wall;
  while (Wall.elapsedUs() < Opts.Seconds * 1e6) {
    double PassUs = 0;
    Rot.next();
    for (const GenInput &In : Inputs)
      PassUs += buildOnce(In, /*Check=*/false).Us;
    UntracedPass.push_back(PassUs);
    Rot.next();
    PassBudget B;
    for (const GenInput &In : Inputs)
      tracedOnce(In, B);
    Out.Attempted += B.Ops;
    Out.Failed += B.Failed;
    Passes.push_back(B);
  }

  auto Med = [&](double PassBudget::*Field) {
    std::vector<double> V;
    for (const PassBudget &B : Passes)
      V.push_back(B.*Field);
    return median(V);
  };
  double OpUs = Med(&PassBudget::OpUs);
  LayerValues L;
  L["grammar.parse_us"] = Med(&PassBudget::Parse);
  L["grammar.analysis_us"] = Med(&PassBudget::Analysis);
  L["lr.lr0_us"] = Med(&PassBudget::Lr0);
  L["lr.states"] = Passes.front().States;
  L["lalr.lookaheads_us"] = Med(&PassBudget::Lookaheads);
  L["lalr.ntindex_us"] = Med(&PassBudget::NtIndex);
  L["lalr.relations_us"] = Med(&PassBudget::Relations);
  L["lalr.solve_read_us"] = Med(&PassBudget::SolveRead);
  L["lalr.solve_follow_us"] = Med(&PassBudget::SolveFollow);
  L["lalr.la_union_us"] =
      std::max(0.0, L["lalr.lookaheads_us"] - L["lalr.ntindex_us"] -
                        L["lalr.relations_us"] - L["lalr.solve_read_us"] -
                        L["lalr.solve_follow_us"]);
  L["lalr.relation_edges"] = Passes.front().Edges;
  L["lalr.fill_us"] = Med(&PassBudget::Fill);
  L["lr.compress_us"] = Med(&PassBudget::Compress);
  double Front = L["grammar.parse_us"] + L["grammar.analysis_us"] +
                 L["lr.lr0_us"] + L["lalr.lookaheads_us"];
  double FillCompress = L["lalr.fill_us"] + L["lr.compress_us"];
  L["share.grammar_lr_lalr"] = OpUs > 0 ? Front / OpUs : 0;
  L["share.fill_compress"] = OpUs > 0 ? FillCompress / OpUs : 0;
  double Untraced = median(UntracedPass);
  L["budget.parts_ratio"] = Untraced > 0 ? (Front + FillCompress) / Untraced : 0;
  double TracedUs = 0;
  for (const PassBudget &B : Passes)
    TracedUs += B.OpUs;
  L["trace.ops_per_s"] =
      TracedUs > 0 ? 1e6 * static_cast<double>(Out.Attempted - Out.Failed) /
                         TracedUs
                   : 0;
  addLayerMetrics(Out, L);
  return Out;
}

} // namespace

Outcome runGenCold(const Options &Opts) {
  std::vector<GenInput> Inputs = genColdInputs(Opts.Seed, Opts.CorruptOracle);
  return Opts.Trace ? traced(Opts, Inputs) : untraced(Opts, Inputs);
}

} // namespace perfbench
