//===- perfbench/src/Layers.cpp - Timing lalr parts from outside ---------===//

#include "Layers.h"

#include "lalr/LalrTableBuilder.h"
#include "lr/CompressedTable.h"
#include "support/Timer.h"

using namespace lalr;

namespace perfbench {

LalrParts timeLalrParts(const Lr0Automaton &A, const GrammarAnalysis &An) {
  LalrParts P;
  Timer T;
  NtTransitionIndex Nt(A);
  ReductionIndex Red(A);
  P.NtIndexUs = T.elapsedUs();
  T.reset();
  LalrRelations Rel = buildLalrRelations(A, An, Nt, Red);
  P.RelationsUs = T.elapsedUs();
  T.reset();
  SetSlab Read = solveDigraph(Rel.Reads, SetSlab(Rel.DirectRead));
  P.SolveReadUs = T.elapsedUs();
  T.reset();
  SetSlab Follow = solveDigraph(Rel.Includes, std::move(Read));
  P.SolveFollowUs = T.elapsedUs();
  P.States = A.numStates();
  P.RelationEdges = Rel.readsEdgeCount() + Rel.includesEdgeCount() +
                    Rel.lookbackEdgeCount();
  return P;
}

FillCompress timeFillCompress(const Lr0Automaton &A, const LalrLookaheads &LA) {
  FillCompress F;
  Timer T;
  ParseTable Table = buildLalrTable(A, LA);
  F.FillUs = T.elapsedUs();
  T.reset();
  CompressedTable C = CompressedTable::compress(Table, A.grammar());
  F.CompressUs = T.elapsedUs();
  return F;
}

} // namespace perfbench
