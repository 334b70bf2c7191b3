//===- perfbench/src/Inputs.cpp - Seeded inputs and their oracle ---------===//

#include "Inputs.h"

#include "Bench.h"

#include "baselines/YaccLalrBuilder.h"
#include "corpus/CorpusGrammars.h"
#include "corpus/SyntheticGrammars.h"
#include "earley/EarleyParser.h"
#include "gen/TableSerializer.h"
#include "grammar/GrammarEdit.h"
#include "grammar/GrammarParser.h"
#include "grammar/GrammarPrinter.h"
#include "grammar/SentenceGen.h"
#include "lalr/LalrLookaheads.h"
#include "lr/Lr0Automaton.h"
#include "parser/ParserDriver.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace lalr;

namespace perfbench {
namespace {

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

Grammar parseOrDie(const std::string &Text, const std::string &Name) {
  DiagnosticEngine Diags;
  std::optional<Grammar> G = parseGrammar(Text, Diags, Name);
  if (!G)
    fatal("grammar '" + Name + "' does not parse:\n" + Diags.render());
  return std::move(*G);
}

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Salt * 0xBF58476D1CE4E5B9ull;
  X ^= X >> 31;
  return X ? X : 1;
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

ParseTable referenceTable(const Grammar &G) {
  Lr0Automaton A = Lr0Automaton::build(G);
  GrammarAnalysis An(G);
  return buildYaccLalrTable(A, An);
}

/// Size band for a random grammar: LR(0) states and DeRemer-Pennello
/// relation edges (reads + includes + lookback), the two sizes that set
/// its build cost.
struct SizeBand {
  size_t MinStates, MaxStates, MinEdges, MaxEdges;
};

double bandDistance(size_t V, size_t Lo, size_t Hi) {
  double X = static_cast<double>(V);
  return X < Lo ? (Lo - X) / Lo : X > Hi ? (X - Hi) / Hi : 0;
}

/// The first of up to 64 seeded random reduced grammars inside \p Band,
/// else the closest one.
Grammar randomGrammarInBand(uint64_t Seed, const RandomGrammarParams &P,
                            const SizeBand &Band) {
  std::optional<Grammar> Best;
  double BestDist = 1e300;
  for (uint64_t K = 0; K < 64 && BestDist > 0; ++K) {
    Grammar G = makeRandomReducedGrammar(mixSeed(Seed, K), P);
    Lr0Automaton A = Lr0Automaton::build(G);
    GrammarAnalysis An(G);
    LalrLookaheads LA = LalrLookaheads::compute(A, An);
    const LalrRelations &R = LA.relations();
    size_t Edges = R.readsEdgeCount() + R.includesEdgeCount() +
                   R.lookbackEdgeCount();
    double Dist = bandDistance(A.numStates(), Band.MinStates, Band.MaxStates) +
                  bandDistance(Edges, Band.MinEdges, Band.MaxEdges);
    if (Dist < BestDist) {
      BestDist = Dist;
      Best.emplace(std::move(G));
    }
  }
  return std::move(*Best);
}

bool earleyAccepts(const Grammar &G, const std::string &Sentence) {
  TokenizeResult T = tokenizeText(G, Sentence);
  if (!T.ok())
    return false;
  std::vector<SymbolId> Ids;
  Ids.reserve(T.Tokens.size());
  for (const Token &Tok : T.Tokens)
    Ids.push_back(Tok.Kind);
  return earleyRecognize(G, Ids);
}

size_t countTokens(const std::string &Sentence) {
  std::istringstream In(Sentence);
  size_t N = 0;
  for (std::string W; In >> W;)
    ++N;
  return N;
}

std::string parseExpect(const std::string &Grammar, bool Accepted,
                        size_t Tokens) {
  return "parse " + Grammar + " lr " + (Accepted ? "accepted" : "rejected") +
         " tokens=" + std::to_string(Tokens);
}

/// The sentence closest to \p Target tokens of up to 64 seeded draws,
/// stopping at the first within 2%; lengths that barely move with the seed
/// keep per-class latencies from moving with it.
std::vector<SymbolId> sentenceNear(const Grammar &G, Rng &R, size_t Target) {
  std::vector<SymbolId> Best;
  size_t BestDist = SIZE_MAX;
  for (int Try = 0; Try < 64 && BestDist > Target / 50; ++Try) {
    std::vector<SymbolId> S = randomSentence(G, R, Target);
    size_t Dist = S.size() > Target ? S.size() - Target : Target - S.size();
    if (Dist < BestDist) {
      BestDist = Dist;
      Best = std::move(S);
    }
  }
  return Best;
}

/// Deletes, inserts or replaces one token until the Earley recognizer
/// rejects the result.
std::vector<SymbolId> mutateToReject(const Grammar &G,
                                     const GrammarAnalysis &An, Rng &R,
                                     std::vector<SymbolId> S) {
  std::vector<SymbolId> Terminals;
  for (SymbolId T = 0; T < G.numTerminals(); ++T)
    if (T != G.eofSymbol() && G.name(T) != "error")
      Terminals.push_back(T);
  std::vector<SymbolId> Cand = S;
  for (int Try = 0; Try < 64; ++Try) {
    Cand = S;
    size_t Pos = R.below(Cand.size() + 1);
    switch (R.below(3)) {
    case 0:
      if (Pos < Cand.size()) {
        Cand.erase(Cand.begin() + Pos);
        break;
      }
      [[fallthrough]];
    case 1:
      Cand.insert(Cand.begin() + Pos, Terminals[R.below(Terminals.size())]);
      break;
    default:
      if (Pos == Cand.size())
        --Pos;
      Cand[Pos] = Terminals[R.below(Terminals.size())];
      break;
    }
    if (!Cand.empty() && !earleyRecognize(G, An, Cand))
      return Cand;
  }
  return Cand;
}

std::string joinRhs(const Grammar &G, const Production &P) {
  std::string Out;
  for (SymbolId S : P.Rhs)
    Out += " " + G.name(S);
  return Out;
}

/// Applies \p Patch (the words after "edit <grammar>") to \p G the way
/// the server's edit verb does; nullopt when the patch does not apply.
std::optional<Grammar> applyPatch(const Grammar &G, const std::string &Patch) {
  std::vector<std::string> Toks;
  std::istringstream In(Patch);
  for (std::string W; In >> W;)
    Toks.push_back(W);
  std::string Error;
  std::optional<GrammarEdit> E = parseGrammarEdit(Toks, Error);
  if (!E)
    return std::nullopt;
  DiagnosticEngine Diags;
  return applyGrammarEdit(G, *E, Diags);
}

size_t unresolvedConflicts(const ParseTable &T) {
  return T.unresolvedShiftReduce() + T.unresolvedReduceReduce();
}

struct EditPair {
  std::string Kind;
  std::string Forward;
  std::string Inverse;
};

/// True when \p P applies, leaves the table free of unresolved conflicts
/// (an author keeps a grammar deterministic, and the Earley oracle
/// presumes it), and its inverse brings back \p Base's text.
bool validPair(const Grammar &G, const std::string &Base, const EditPair &P) {
  std::optional<Grammar> Fwd = applyPatch(G, P.Forward);
  if (!Fwd)
    return false;
  Grammar Reparsed = parseOrDie(printGrammarText(*Fwd), G.grammarName());
  if (unresolvedConflicts(referenceTable(Reparsed)) != 0)
    return false;
  std::optional<Grammar> Back = applyPatch(Reparsed, P.Inverse);
  return Back && printGrammarText(*Back) == Base;
}

std::vector<EditPair> candidatePairs(const Grammar &G) {
  std::vector<EditPair> Out;
  // Conflict-local: flip a declared associativity, or declare and then
  // drop a precedence on a token.
  for (SymbolId T = 1; T < G.numTerminals(); ++T) {
    const Precedence &P = G.precedence(T);
    std::string Name = G.name(T);
    if (P.Level > 0 && P.Associativity != Assoc::None) {
      bool Left = P.Associativity == Assoc::Left;
      std::string Lvl = std::to_string(P.Level);
      Out.push_back({"conflict",
                     "prec " + Name + (Left ? " right " : " left ") + Lvl,
                     "prec " + Name + (Left ? " left " : " right ") + Lvl});
    } else if (P.Level == 0) {
      Out.push_back({"conflict", "prec " + Name + " left 1",
                     "prec " + Name + " none 0"});
    }
  }
  for (ProductionId Id = 1; Id < G.numProductions(); ++Id) {
    const Production &P = G.production(Id);
    // Production-local: repeat a production's closing terminal.
    if (!P.Rhs.empty() && G.isTerminal(P.Rhs.back()))
      Out.push_back({"production",
                     "rhs " + std::to_string(Id) + joinRhs(G, P) + " " +
                         G.name(P.Rhs.back()),
                     "rhs " + std::to_string(Id) + joinRhs(G, P)});
    // Structural: remove the last alternative of a nonterminal and add it
    // back (the printer lists alternatives in order, so the text returns).
    auto Alts = G.productionsOf(P.Lhs);
    if (Alts.size() >= 2 && Alts.back() == Id)
      Out.push_back({"structural", "rm-prod " + std::to_string(Id),
                     "add-prod " + G.name(P.Lhs) + joinRhs(G, P)});
  }
  return Out;
}

} // namespace

SettledText settledCorpusText(const std::string &Name) {
  const CorpusEntry *E = corpusGrammarByName(Name);
  if (!E)
    fatal("unknown corpus grammar '" + Name + "'");
  SettledText Out;
  Out.Text = printGrammarText(parseOrDie(E->Source, Name));
  for (; Out.Rounds < 32; ++Out.Rounds) {
    std::string Next = printGrammarText(parseOrDie(Out.Text, Name));
    if (Next == Out.Text)
      return Out;
    Out.Text = std::move(Next);
  }
  fatal("grammar '" + Name + "' never settles under print(parse(text))");
}

std::string referenceBuildBody(const std::string &Name,
                               const std::string &Text) {
  Grammar G = parseOrDie(Text, Name);
  ParseTable T = referenceTable(G);
  return "build " + Name + " lalr1 states=" + std::to_string(T.numStates()) +
         " conflicts=" + std::to_string(T.conflicts().size()) + " compressed";
}

bool excludedFromParseTraffic(const Grammar &G) {
  // tiger's %nonassoc comparisons make its LR language a strict subset
  // of its grammar's, so the Earley verdict is no oracle for it.
  if (G.grammarName() == "tiger")
    return true;
  // The wire protocol reads '#' as the start of a comment.
  for (SymbolId T = 0; T < G.numTerminals(); ++T)
    if (G.name(T).find('#') != std::string::npos)
      return true;
  return false;
}

std::vector<GenInput> genColdInputs(uint64_t Seed, bool Corrupt) {
  std::vector<GenInput> Inputs;
  for (const CorpusEntry &E : realisticCorpusEntries())
    Inputs.push_back({E.Name, E.Source, 0});

  // Corpus build costs have their median at minisql (136 LR(0) states);
  // one random grammar sits well below it and one well above it, so the
  // pooled median stays on the same corpus grammar whatever the seed, and
  // tight bands keep their cost and table size from moving with it.
  RandomGrammarParams Small;
  Small.NumTerminals = 14;
  Small.NumNonterminals = 16;
  Small.MaxProdsPerNt = 4;
  Small.MaxRhsLen = 5;
  RandomGrammarParams Large = Small;
  Large.NumTerminals = 24;
  Large.NumNonterminals = 40;
  Inputs.push_back({"random-small",
                    printGrammarText(randomGrammarInBand(
                        mixSeed(Seed, 1), Small, {80, 110, 200, 450})),
                    0});
  Inputs.push_back({"random-large",
                    printGrammarText(randomGrammarInBand(
                        mixSeed(Seed, 2), Large, {220, 250, 900, 1700})),
                    0});

  for (size_t I = 0; I < Inputs.size(); ++I) {
    GenInput &In = Inputs[I];
    Grammar G = parseOrDie(In.Text, In.Name);
    std::vector<uint8_t> Bytes = serializeTable(G, referenceTable(G));
    if (Corrupt && I == 0)
      Bytes[Bytes.size() / 2] ^= 0x01;
    In.RefHash = fnv1a(Bytes);
  }
  Rng R(mixSeed(Seed, 3));
  shuffle(Inputs, R);
  return Inputs;
}

std::vector<ReadRequest> readRequests(const std::vector<std::string> &Grammars,
                                      uint64_t Seed, bool Corrupt) {
  // Seven accepted lengths, log-spaced from 16 to 2048 tokens.
  static constexpr size_t Targets[] = {16, 36, 81, 181, 406, 911, 2048};
  std::vector<ReadRequest> Out;
  for (size_t GI = 0; GI < Grammars.size(); ++GI) {
    const std::string &Name = Grammars[GI];
    const CorpusEntry *E = corpusGrammarByName(Name);
    if (!E)
      fatal("unknown corpus grammar '" + Name + "'");
    Grammar G = parseOrDie(E->Source, Name);
    std::string Body = referenceBuildBody(Name, E->Source);
    for (int Rep = 0; Rep < 2; ++Rep)
      Out.push_back({Name, false, "", "build " + Name + " lalr1 compress",
                     Body, Name + "/build"});
    if (excludedFromParseTraffic(G))
      continue;

    GrammarAnalysis An(G);
    Rng R(mixSeed(Seed, 100 + GI));
    std::vector<std::vector<SymbolId>> Sentences;
    for (size_t Target : Targets)
      Sentences.push_back(sentenceNear(G, R, Target));
    Sentences.push_back(mutateToReject(G, An, R, Sentences[3]));
    for (const std::vector<SymbolId> &S : Sentences) {
      std::string Text = renderSentence(G, S);
      bool Accepted = earleyAccepts(G, Text);
      Out.push_back({Name, true, Text, "parse " + Name + " lr " + Text,
                     parseExpect(Name, Accepted, countTokens(Text)),
                     Name + "/parse"});
    }
  }
  if (Corrupt) {
    // One wrong reference table (its state count) and one flipped verdict.
    for (ReadRequest &Q : Out)
      if (!Q.IsParse) {
        Q.Expect = "build " + Q.Grammar + " lalr1 states=0 conflicts=0";
        break;
      }
    for (ReadRequest &Q : Out)
      if (Q.IsParse) {
        Q.Expect = parseExpect(Q.Grammar,
                               Q.Expect.find(" accepted ") == std::string::npos,
                               countTokens(Q.Input));
        break;
      }
  }
  return Out;
}

EditSession editScript(const std::vector<std::string> &Grammars,
                       uint64_t Seed) {
  std::vector<std::string> Order = Grammars;
  Rng R(mixSeed(Seed, 200));
  shuffle(Order, R);
  EditSession Session;
  for (const std::string &Name : Order) {
    SettledText Settled = settledCorpusText(Name);
    const std::string &Base = Settled.Text;
    Grammar G = parseOrDie(Base, Name);
    if (unresolvedConflicts(referenceTable(G)) != 0)
      fatal("edit target '" + Name + "' has unresolved conflicts");
    std::vector<EditPair> Candidates = candidatePairs(G);
    shuffle(Candidates, R);
    // The author's test sentence, mid-length, fixed for the cycle.
    std::string Sentence = renderSentence(G, sentenceNear(G, R, 120));
    // Every valid edit, in seeded order: the seed moves the order, not
    // the mix of edits, so the cost of a cycle does not depend on it.
    std::vector<const EditPair *> Picks;
    for (const EditPair &P : Candidates)
      if (validPair(G, Base, P))
        Picks.push_back(&P);
    for (const char *Kind : {"conflict", "production", "structural"})
      if (std::none_of(Picks.begin(), Picks.end(),
                       [&](const EditPair *P) { return P->Kind == Kind; }))
        fatal("no valid " + std::string(Kind) + " edit for '" + Name + "'");

    // Id-free edits that walk the server's copy to the settled text (an
    // even number, so the precedence ends where it started).
    const EditPair &Walk = **std::find_if(
        Picks.begin(), Picks.end(),
        [](const EditPair *P) { return P->Kind == "conflict"; });
    std::string Walked = printGrammarText(
        parseOrDie(corpusGrammarByName(Name)->Source, Name));
    for (unsigned I = 0; I < Settled.Rounds + Settled.Rounds % 2; ++I) {
      const std::string &Patch = I % 2 ? Walk.Inverse : Walk.Forward;
      Session.Prelude.push_back("edit " + Name + " " + Patch);
      Walked = printGrammarText(*applyPatch(parseOrDie(Walked, Name), Patch));
    }
    if (Walked != Base)
      fatal("prelude edits do not settle '" + Name + "'");

    std::string Text = Base;
    for (const EditPair *Pick : Picks)
      for (const std::string *Patch : {&Pick->Forward, &Pick->Inverse}) {
        Grammar Prev = parseOrDie(Text, Name);
        std::optional<Grammar> Next = applyPatch(Prev, *Patch);
        if (!Next)
          fatal("edit '" + *Patch + "' no longer applies to '" + Name + "'");
        EditStep S;
        S.Grammar = Name;
        S.Kind = Pick->Kind;
        S.Class = "edit/" + S.Kind;
        S.Patch = *Patch;
        S.PrevText = Text;
        S.NewText = printGrammarText(*Next);
        S.EditLine = "edit " + Name + " " + *Patch;
        S.EditExpect = "edit " + Name + " applied " +
                       grammarEditClassName(
                           computeGrammarDelta(Prev, *Next).Class);
        S.BuildLine = "build " + Name + " lalr1 compress";
        S.BuildExpect = referenceBuildBody(Name, S.NewText);
        S.ParseLine = "parse " + Name + " lr " + Sentence;
        Grammar Version = parseOrDie(S.NewText, Name);
        S.ParseExpect = parseExpect(Name, earleyAccepts(Version, Sentence),
                                    countTokens(Sentence));
        Text = S.NewText;
        Session.Steps.push_back(std::move(S));
      }
    if (Text != Base)
      fatal("edit cycle on '" + Name + "' does not return to its start");
  }
  return Session;
}

} // namespace perfbench
