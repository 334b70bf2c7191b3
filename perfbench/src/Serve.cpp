//===- perfbench/src/Serve.cpp - The serve-warm and serve-edit workloads -===//
///
/// \file
/// An in-process NetServer with daemon defaults and closed-loop clients
/// on real loopback connections; latency is measured at the client.
///
/// serve-warm: two reader connections. After set-up every table is warm,
/// so net, service, parse and parser do the work and LR(0) and the
/// look-ahead computation do none; a build hit still re-runs table fill
/// and compress.
///
/// serve-edit: one grammar author (edit, build, parse on a few grammars,
/// every edit later undone) beside one reader on the other grammars, so
/// edit classification, artifact patching and rebuilds do the work and a
/// rebuild that stalls other grammars' reads shows in the reader's tail.
///
/// A traced run sends the same traffic, then replays it in-process on a
/// warmed twin of the services to time each layer's public call.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"

#include "corpus/CorpusGrammars.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "pipeline/BuildPipeline.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

using namespace lalr;

namespace perfbench {
namespace {

/// A run is this many rounds of set-up (on a fresh server) followed by an
/// equal slice of the timed window. The host's speed drifts over seconds,
/// so set-ups spread over the run, like the window, and their median
/// repeats.
constexpr int Rounds = 7;
constexpr int WarmupPasses = 20; ///< per reader; the author's cycle once
constexpr int ReplayPasses = 5;  ///< over the reads; the author's cycle once

const char *const EditGrammars[] = {"expr_prec", "oberon", "minisql"};

const BuildOptions Lalr1Compress = {
    .Kind = TableKind::Lalr1, .Compress = true, .Threads = 0};

bool bodyMatches(const WireResponse &R, const std::string &Expect,
                 bool Prefix) {
  if (!R.Ok)
    return false;
  if (!Prefix)
    return R.Body == Expect;
  return R.Body.compare(0, Expect.size(), Expect) == 0 &&
         (R.Body.size() == Expect.size() || R.Body[Expect.size()] == ' ');
}

/// Sends one line; true iff the response is ok and matches the oracle.
/// The first few mismatches are described on stderr.
bool send(NetClient &C, const std::string &Line, const std::string &Expect,
          bool Prefix) {
  static std::atomic<int> Reported{0};
  WireResponse R;
  std::string Error;
  bool Sent = C.request(Line, R, Error);
  if (Sent && bodyMatches(R, Expect, Prefix))
    return true;
  if (Reported.fetch_add(1) < 5)
    std::fprintf(stderr,
                 "perfbench: mismatch\n  request: %.200s\n  expected: %s\n"
                 "  got: %s\n",
                 Line.c_str(), Expect.c_str(),
                 !Sent   ? ("transport error: " + Error).c_str()
                 : R.Ok ? ("ok " + R.Body).c_str()
                        : ("err " + R.Code + " " + R.Message).c_str());
  return false;
}

struct ClientTally {
  LatencyLog Lat;
  uint64_t Attempted = 0, Failed = 0;
};

struct Workload {
  bool Edit = false;
  std::vector<ReadRequest> Reads;
  std::vector<std::string> Prelude; ///< serve-edit: settles the grammars
  std::vector<EditStep> Script;     ///< empty for serve-warm
  std::vector<std::vector<size_t>> ReadSchedules; ///< one per reader
};

Workload makeWorkload(const Options &Opts, bool Edit) {
  Workload W;
  W.Edit = Edit;
  std::vector<std::string> ReadGrammars, Edited;
  for (const CorpusEntry &E : realisticCorpusEntries()) {
    bool IsEdited = false;
    for (const char *N : EditGrammars)
      IsEdited |= Edit && E.Name == std::string(N);
    (IsEdited ? Edited : ReadGrammars).push_back(E.Name);
  }
  W.Reads = readRequests(ReadGrammars, Opts.Seed, Opts.CorruptOracle);
  if (Edit) {
    EditSession Session = editScript(Edited, Opts.Seed);
    W.Prelude = std::move(Session.Prelude);
    W.Script = std::move(Session.Steps);
  }
  // serve-warm: two readers; serve-edit: one reader beside the author.
  Rng R(Opts.Seed * 7919 + 17);
  for (int C = 0; C < (Edit ? 1 : 2); ++C) {
    std::vector<size_t> S(W.Reads.size());
    for (size_t I = 0; I < S.size(); ++I)
      S[I] = I;
    for (size_t I = S.size(); I > 1; --I)
      std::swap(S[I - 1], S[R.below(I)]);
    W.ReadSchedules.push_back(std::move(S));
  }
  return W;
}

/// Runs one author step (edit, build, parse); true iff all three matched.
bool authorStep(NetClient &C, const EditStep &S) {
  bool Ok = send(C, S.EditLine, S.EditExpect, false);
  Ok &= send(C, S.BuildLine, S.BuildExpect, false);
  Ok &= send(C, S.ParseLine, S.ParseExpect, true);
  return Ok;
}

std::unique_ptr<NetServer> startServer() {
  auto S = std::make_unique<NetServer>(NetServer::Options{});
  std::string Error;
  if (!S->start(Error)) {
    std::fprintf(stderr, "perfbench: cannot start server: %s\n",
                 Error.c_str());
    std::exit(2);
  }
  return S;
}

NetClient::Options clientOptions(uint16_t Port, uint64_t Jitter) {
  NetClient::Options O;
  O.Port = Port;
  O.JitterSeed = Jitter;
  return O;
}

/// Set-up: server start and cache fill on one connection, then the
/// warm-up on the window's connections, concurrently as in the window:
/// each reader makes passes over its reads while the author (serve-edit)
/// runs one whole cycle of its script. Returns seconds taken.
double setUp(const Workload &W, std::unique_ptr<NetServer> &Server) {
  Timer T;
  Server = startServer();
  uint16_t Port = Server->port();
  {
    NetClient C(clientOptions(Port, 1));
    for (const CorpusEntry &E : realisticCorpusEntries())
      send(C, std::string("build ") + E.Name + " lalr1 compress",
           std::string("build ") + E.Name, true);
    for (const std::string &Line : W.Prelude)
      send(C, Line, Line.substr(0, Line.find(' ', 5)), true); // "edit <name>"
  }
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < W.ReadSchedules.size(); ++C)
    Threads.emplace_back([&, C] {
      NetClient Cli(clientOptions(Port, 100 + C));
      for (int P = 0; P < WarmupPasses; ++P)
        for (size_t I : W.ReadSchedules[C])
          send(Cli, W.Reads[I].Line, W.Reads[I].Expect, W.Reads[I].IsParse);
    });
  if (W.Edit)
    Threads.emplace_back([&] {
      NetClient Cli(clientOptions(Port, 99));
      for (const EditStep &S : W.Script)
        authorStep(Cli, S);
    });
  for (std::thread &Th : Threads)
    Th.join();
  return T.elapsedUs() / 1e6;
}

/// The timed window, possibly run in slices: each client's samples and
/// counts, the window's wall time and each slice's peak RSS.
struct Window {
  std::vector<ClientTally> Clients; ///< the readers, then the author
  double WallUs = 0;
  std::vector<double> SlicePeakRssMb;

  Window(const Workload &W, double Seconds)
      : Clients(W.ReadSchedules.size() + (W.Edit ? 1 : 0)) {
    // Room for every sample, with a wide margin over the rates on a
    // 4-vCPU VM (up to about 10 000 reads/s per reader, 1 400 author
    // steps/s).
    for (size_t C = 0; C < Clients.size(); ++C)
      Clients[C].Lat.reserve(static_cast<size_t>(
          Seconds * (C < W.ReadSchedules.size() ? 20000 : 4000)));
  }
  /// Every client's samples and counts together.
  ClientTally merged() const {
    ClientTally All;
    for (const ClientTally &T : Clients) {
      All.Lat.merge(T.Lat);
      All.Attempted += T.Attempted;
      All.Failed += T.Failed;
    }
    return All;
  }
  /// The reader connections' samples: the stream p99 is taken over.
  std::vector<double> readerUs(const Workload &W) const {
    std::vector<double> V;
    for (size_t C = 0; C < W.ReadSchedules.size(); ++C) {
      std::vector<double> One = Clients[C].Lat.all();
      V.insert(V.end(), One.begin(), One.end());
    }
    return V;
  }
};

/// One slice of the window: every client in a closed loop until the
/// deadline.
void runSlice(const Workload &W, NetServer &Server, double Seconds,
              Window &Win) {
  resetPeakRss();
  Timer Wall;
  double DeadlineUs = Seconds * 1e6;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < W.ReadSchedules.size(); ++C)
    Threads.emplace_back([&, C] {
      NetClient Cli(clientOptions(Server.port(), 100 + C));
      const std::vector<size_t> &Sched = W.ReadSchedules[C];
      ClientTally &T = Win.Clients[C];
      for (size_t I = 0; Wall.elapsedUs() < DeadlineUs; ++I) {
        const ReadRequest &Q = W.Reads[Sched[I % Sched.size()]];
        Timer Op;
        bool Ok = send(Cli, Q.Line, Q.Expect, Q.IsParse);
        T.Lat.add(Q.Class, Op.elapsedUs());
        ++T.Attempted;
        T.Failed += !Ok;
      }
    });
  if (W.Edit)
    Threads.emplace_back([&] {
      NetClient Cli(clientOptions(Server.port(), 99));
      ClientTally &T = Win.Clients.back();
      for (size_t I = 0; Wall.elapsedUs() < DeadlineUs; ++I) {
        const EditStep &S = W.Script[I % W.Script.size()];
        Timer Op;
        bool Ok = authorStep(Cli, S);
        T.Lat.add(S.Class, Op.elapsedUs());
        ++T.Attempted;
        T.Failed += !Ok;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Win.WallUs += Wall.elapsedUs();
  Win.SlicePeakRssMb.push_back(peakRssMb());
}

/// Sum of compressed footprints over the distinct tables the workload
/// produced, asked of the server's own build service after the window.
uint64_t tableBytes(const Workload &W, NetServer &Server) {
  std::vector<ServiceRequest> Reqs;
  for (const CorpusEntry &E : realisticCorpusEntries())
    Reqs.push_back({E.Name, "", Lalr1Compress});
  std::vector<std::string> Seen;
  for (const EditStep &S : W.Script)
    if (std::find(Seen.begin(), Seen.end(), S.NewText) == Seen.end()) {
      Seen.push_back(S.NewText);
      if (S.NewText != settledCorpusText(S.Grammar).Text)
        Reqs.push_back({S.Grammar, S.NewText, Lalr1Compress});
    }
  uint64_t Bytes = 0;
  for (const ServiceRequest &Q : Reqs) {
    std::vector<ServiceResponse> R = Server.buildService().runBatch({&Q, 1});
    if (R[0].Ok && R[0].Result->Compressed)
      Bytes += R[0].Result->Compressed->footprintBytes();
  }
  return Bytes;
}

Outcome untraced(const Options &Opts, const Workload &W) {
  Window Win(W, Opts.Seconds);
  std::vector<double> Setups;
  std::unique_ptr<NetServer> Server;
  CpuRotation Rot;
  for (int Round = 0; Round < Rounds; ++Round) {
    if (Server)
      Server->drain();
    Server.reset();
    Rot.next(2); // before the round's server and clients start
    Setups.push_back(setUp(W, Server));
    runSlice(W, *Server, Opts.Seconds / Rounds, Win);
  }
  ClientTally All = Win.merged();
  Outcome Out;
  Out.Attempted = All.Attempted;
  Out.Failed = All.Failed;
  uint64_t Bytes = tableBytes(W, *Server);
  addEndToEnd(Out, Setups, Out.Attempted - Out.Failed, Win.WallUs, All.Lat,
              Win.readerUs(W), Win.SlicePeakRssMb, Bytes);
  Server->drain();
  return Out;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Per-class samples from the in-process replay.
struct ReplayLog {
  LatencyLog Service, Parse, Tokenize, Drive, Fill, Compress;
  double FrontUs = 0, FillCompressUs = 0, Tokens = 0;
  size_t Ops = 0, Parses = 0;
};

const char *const FrontStages[] = {"analysis",  "lr0",        "nt-index",
                                   "relations", "solve-read", "solve-follow",
                                   "la-union"};

double frontStageUs(const PipelineStats &S) {
  double Us = 0;
  for (const char *Stage : FrontStages)
    Us += S.stageUs(Stage);
  return Us;
}

/// Replays the reads on a warmed twin of the server's services: times
/// BuildService::runBatch and ParseService::run, and the fill, compress,
/// tokenize and drive calls they make, each from outside.
ReplayLog replayReads(const Workload &W) {
  BuildService Build(BuildService::Options{});
  ParseService Parse(Build);
  struct Local {
    std::unique_ptr<BuildContext> Ctx;
    std::optional<BuildResult> Result;
  };
  std::map<std::string, Local> Locals;
  auto local = [&](const std::string &Name) -> Local & {
    Local &L = Locals[Name];
    if (!L.Ctx) {
      L.Ctx = std::make_unique<BuildContext>(loadCorpusGrammar(Name));
      L.Result.emplace(BuildPipeline(*L.Ctx, Lalr1Compress).run());
    }
    return L;
  };
  auto buildReq = [](const ReadRequest &Q) {
    return ServiceRequest{Q.Grammar, "", Lalr1Compress};
  };
  auto parseReq = [](const ReadRequest &Q) {
    ParseRequest P;
    P.GrammarName = Q.Grammar;
    P.Input = Q.Input;
    P.Options = Lalr1Compress;
    return P;
  };
  for (const ReadRequest &Q : W.Reads) {
    local(Q.Grammar);
    if (Q.IsParse)
      Parse.run(parseReq(Q));
    else {
      ServiceRequest Req = buildReq(Q);
      Build.runBatch({&Req, 1});
    }
  }

  ReplayLog Log;
  double FrontBefore = frontStageUs(Build.stats().Aggregate);
  for (int P = 0; P < ReplayPasses; ++P)
    for (size_t I : W.ReadSchedules[0]) {
      const ReadRequest &Q = W.Reads[I];
      Local &L = local(Q.Grammar);
      ++Log.Ops;
      if (!Q.IsParse) {
        ServiceRequest Req = buildReq(Q);
        Timer T;
        Build.runBatch({&Req, 1});
        Log.Service.add(Q.Grammar, T.elapsedUs());
        FillCompress F = timeFillCompress(L.Ctx->lr0(), L.Ctx->lookaheads());
        Log.Fill.add(Q.Grammar, F.FillUs);
        Log.Compress.add(Q.Grammar, F.CompressUs);
        Log.FillCompressUs += F.FillUs + F.CompressUs;
        continue;
      }
      ++Log.Parses;
      ParseRequest Req = parseReq(Q);
      Timer T;
      Parse.run(Req);
      Log.Parse.add(Q.Grammar, T.elapsedUs());
      const Grammar &G = L.Ctx->grammar();
      T.reset();
      TokenizeResult Tok = tokenizeText(G, Q.Input);
      Log.Tokenize.add(Q.Grammar, T.elapsedUs());
      ParseOptions PO;
      PO.Recover = false;
      PO.MaxErrors = 1;
      T.reset();
      recognize(G, *L.Result->Compressed, Tok.Tokens, PO);
      Log.Drive.add(Q.Grammar, T.elapsedUs());
      Log.Tokens += static_cast<double>(Tok.Tokens.size());
    }
  // Warm hits build nothing; keep summation noise out of that zero.
  Log.FrontUs =
      std::max(0.0, frontStageUs(Build.stats().Aggregate) - FrontBefore);
  if (Log.FrontUs < 1e-3)
    Log.FrontUs = 0;
  return Log;
}

const char *editClassKey(GrammarEditClass C) {
  switch (C) {
  case GrammarEditClass::ConflictLocal:
    return "conflict";
  case GrammarEditClass::ProductionLocal:
    return "production";
  case GrammarEditClass::Identical:
  case GrammarEditClass::Structural:
    break;
  }
  return "structural";
}

/// Replays the author's script on twin contexts, the way the server's
/// build cache applies each new version, timing each public call.
void replayEdits(const Workload &W, LayerValues &L) {
  std::map<std::string, std::unique_ptr<BuildContext>> Ctxs;
  for (const EditStep &S : W.Script)
    if (!Ctxs.count(S.Grammar)) {
      DiagnosticEngine Diags;
      auto &C = Ctxs[S.Grammar];
      C = std::make_unique<BuildContext>(
          std::move(*parseGrammar(S.PrevText, Diags, S.Grammar)));
      C->setThreads(0);
      BuildPipeline(*C, Lalr1Compress).run();
    }

  LatencyLog Edit, Delta, Apply, Rebuild, Path;
  // Most steps rebuild little, so per-step means (not medians) of each
  // layer's time make the budget.
  std::map<std::string, std::vector<double>> PerStep;
  std::map<std::string, double> ClassCount;
  double Patched = 0, Steps = 0, States = 0, Edges = 0;
  for (const EditStep &S : W.Script) {
    // The edit verb: parse the working copy, edit, classify, print.
    std::vector<std::string> Toks;
    std::istringstream In(S.Patch);
    for (std::string Tk; In >> Tk;)
      Toks.push_back(Tk);
    DiagnosticEngine Diags;
    std::string Error;
    Timer T;
    std::optional<Grammar> Prev = parseGrammar(S.PrevText, Diags, S.Grammar);
    double ParsePrevUs = T.elapsedUs();
    T.reset();
    std::optional<GrammarEdit> E = parseGrammarEdit(Toks, Error);
    std::optional<Grammar> Next =
        E && Prev ? applyGrammarEdit(*Prev, *E, Diags) : std::nullopt;
    double EditUs = T.elapsedUs();
    if (!Next)
      continue;
    T.reset();
    computeGrammarDelta(*Prev, *Next);
    double DeltaUs = T.elapsedUs();
    T.reset();
    std::string Printed = printGrammarText(*Next);
    (void)Printed;
    double PrintUs = T.elapsedUs();

    // The build verb: parse the new text, apply it to the cached
    // context, rebuild.
    BuildContext &Ctx = *Ctxs[S.Grammar];
    size_t Lr0Before = Ctx.lr0BuildCount();
    size_t LaBefore = Ctx.lookaheadBuildCount();
    T.reset();
    std::optional<Grammar> G = parseGrammar(S.NewText, Diags, S.Grammar);
    double ParseUs = T.elapsedUs();
    T.reset();
    BuildContext::EditOutcome O = Ctx.applyEdit(std::move(*G));
    double ApplyUs = T.elapsedUs();
    T.reset();
    Ctx.analysis();
    double AnalysisUs = T.elapsedUs();
    T.reset();
    const Lr0Automaton &A = Ctx.lr0();
    double Lr0Us = T.elapsedUs();
    T.reset();
    Ctx.lookaheads();
    double LookaheadsUs = T.elapsedUs();
    T.reset();
    BuildPipeline(Ctx, Lalr1Compress).run();
    double RunUs = T.elapsedUs();
    double RebuildUs = AnalysisUs + Lr0Us + LookaheadsUs + RunUs;

    LalrParts Parts;
    if (Ctx.lookaheadBuildCount() != LaBefore)
      Parts = timeLalrParts(A, Ctx.analysis());

    std::string Cls = editClassKey(O.Class);
    Edit.add(Cls, EditUs);
    Delta.add(Cls, DeltaUs);
    Apply.add(Cls, ApplyUs);
    Rebuild.add(Cls, RebuildUs);
    Path.add(S.Kind, ParsePrevUs + EditUs + DeltaUs + PrintUs + ParseUs +
                         ApplyUs + RebuildUs);
    PerStep["grammar.parse_us"].push_back(ParsePrevUs + ParseUs);
    PerStep["grammar.print_us"].push_back(PrintUs);
    PerStep["grammar.analysis_us"].push_back(AnalysisUs);
    PerStep["lr.lr0_us"].push_back(Lr0Us);
    PerStep["lalr.lookaheads_us"].push_back(LookaheadsUs);
    PerStep["lalr.ntindex_us"].push_back(Parts.NtIndexUs);
    PerStep["lalr.relations_us"].push_back(Parts.RelationsUs);
    PerStep["lalr.solve_read_us"].push_back(Parts.SolveReadUs);
    PerStep["lalr.solve_follow_us"].push_back(Parts.SolveFollowUs);
    ++Steps;
    ++ClassCount[Cls];
    Patched += O.Patched;
    if (Ctx.lr0BuildCount() != Lr0Before)
      States += static_cast<double>(A.numStates());
    if (Ctx.lookaheadBuildCount() != LaBefore)
      Edges += static_cast<double>(Parts.RelationEdges);
  }

  L["grammar.edit_us"] = median(Edit.all());
  L["grammar.delta_us"] = median(Delta.all());
  for (const auto &[Name, V] : PerStep)
    L[Name] = mean(V);
  L["lalr.la_union_us"] =
      std::max(0.0, L["lalr.lookaheads_us"] - L["lalr.ntindex_us"] -
                        L["lalr.relations_us"] - L["lalr.solve_read_us"] -
                        L["lalr.solve_follow_us"]);
  L["lr.states"] = States;
  L["lalr.relation_edges"] = Edges;
  for (const char *C : {"conflict", "production", "structural"}) {
    L[std::string("pipeline.apply_edit_us.") + C] = Apply.classMedian(C);
    L[std::string("pipeline.rebuild_us.") + C] = Rebuild.classMedian(C);
    L[std::string("edit.share.") + C] = ratio(ClassCount[C], Steps);
  }
  L["pipeline.patched_ratio"] = ratio(Patched, Steps);
  // Edit-path time (both verbs above) over the author's operation time
  // (edit, build and parse on the wire), per edit kind.
  double PathUs = Path.meanOfClassMedians();
  L["share.edit_path"] = ratio(PathUs, L["net.rtt_edit_us"]);
}

Outcome traced(const Options &Opts, const Workload &W) {
  std::unique_ptr<NetServer> Server;
  CpuRotation Rot;
  Rot.next(2);
  setUp(W, Server);
  NetStats Net0 = Server->stats();
  ServiceStats Svc0 = Server->buildService().stats();
  ParseStats Parse0 = Server->parseService().stats();
  Window Win(W, Opts.Seconds);
  runSlice(W, *Server, Opts.Seconds, Win);
  NetStats Net1 = Server->stats();
  ServiceStats Svc1 = Server->buildService().stats();
  ParseStats Parse1 = Server->parseService().stats();
  Server->drain();
  Server.reset();

  Outcome Out;
  ClientTally All = Win.merged();
  Out.Attempted = All.Attempted;
  Out.Failed = All.Failed;
  const LatencyLog &Lat = All.Lat;
  LayerValues L;
  // Reader classes are "<grammar>/<verb>"; the author's are "edit/<kind>".
  // Means over requests weight each class by its share of the mix.
  std::vector<double> Build, ParseV, Read;
  for (const ReadRequest &Q : W.Reads) {
    double M = Lat.classMedian(Q.Class);
    (Q.IsParse ? ParseV : Build).push_back(M);
    Read.push_back(M);
  }
  L["net.rtt_build_us"] = mean(Build);
  L["net.rtt_parse_us"] = mean(ParseV);
  L["net.rtt_read_us"] = mean(Read);
  L["net.rtt_edit_us"] = Lat.meanOfClassMedians("edit/");

  double Requests = static_cast<double>(Net1.Requests - Net0.Requests);
  L["net.coalesced_ratio"] =
      ratio(static_cast<double>(Net1.Coalesced - Net0.Coalesced), Requests);
  L["net.shed_ratio"] =
      ratio(static_cast<double>(Net1.Shed - Net0.Shed), Requests);
  double Hits = static_cast<double>(Svc1.CacheHits - Svc0.CacheHits);
  double Misses = static_cast<double>(Svc1.CacheMisses - Svc0.CacheMisses);
  L["service.cache_hit_ratio"] = ratio(Hits, Hits + Misses);
  double THits = static_cast<double>(Parse1.TableHits - Parse0.TableHits);
  double TBuilds =
      static_cast<double>(Parse1.TableBuilds - Parse0.TableBuilds);
  L["parse.table_hit_ratio"] = ratio(THits, THits + TBuilds);
  L["trace.ops_per_s"] =
      ratio(1e6 * static_cast<double>(Out.Attempted - Out.Failed), Win.WallUs);

  ReplayLog R = replayReads(W);
  L["service.build_us"] = R.Service.meanOfClassMedians();
  L["parse.run_us"] = R.Parse.meanOfClassMedians();
  L["lalr.fill_us"] = R.Fill.meanOfClassMedians();
  L["lr.compress_us"] = R.Compress.meanOfClassMedians();
  L["parser.tokenize_us"] = R.Tokenize.meanOfClassMedians();
  L["parser.drive_us"] = R.Drive.meanOfClassMedians();
  L["parser.tokens"] = ratio(R.Tokens, static_cast<double>(R.Parses));
  L["net.wire_build_us"] = L["net.rtt_build_us"] - L["service.build_us"];
  L["net.wire_parse_us"] = L["net.rtt_parse_us"] - L["parse.run_us"];

  // Reader shares: each layer's mean time per replayed read over the mean
  // read latency on the wire; net, service, parse and parser take the rest.
  double ReadUs = L["net.rtt_read_us"];
  double Ops = static_cast<double>(R.Ops);
  L["share.grammar_lr_lalr"] = ratio(R.FrontUs / Ops, ReadUs);
  L["share.fill_compress"] = ratio(R.FillCompressUs / Ops, ReadUs);

  if (W.Edit)
    replayEdits(W, L);
  addLayerMetrics(Out, L);
  return Out;
}

} // namespace

Outcome runServeWarm(const Options &Opts) {
  Workload W = makeWorkload(Opts, /*Edit=*/false);
  return Opts.Trace ? traced(Opts, W) : untraced(Opts, W);
}

Outcome runServeEdit(const Options &Opts) {
  Workload W = makeWorkload(Opts, /*Edit=*/true);
  return Opts.Trace ? traced(Opts, W) : untraced(Opts, W);
}

} // namespace perfbench
