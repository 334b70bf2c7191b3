//===- perfbench/src/Layers.h - Timing lalr parts from outside --*- C++ -*-===//
///
/// \file
/// LalrLookaheads::compute is one public call; its parts are public too,
/// and so are table fill and compress. A traced run re-runs them on the
/// automaton an operation just built, so each part's time is measured from
/// outside the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "lalr/LalrLookaheads.h"

namespace perfbench {

struct LalrParts {
  double NtIndexUs = 0;     ///< NtTransitionIndex + ReductionIndex
  double RelationsUs = 0;   ///< buildLalrRelations
  double SolveReadUs = 0;   ///< solveDigraph over reads
  double SolveFollowUs = 0; ///< solveDigraph over includes
  size_t States = 0;
  size_t RelationEdges = 0; ///< reads + includes + lookback
};

LalrParts timeLalrParts(const lalr::Lr0Automaton &A,
                        const lalr::GrammarAnalysis &An);

struct FillCompress {
  double FillUs = 0;     ///< buildLalrTable
  double CompressUs = 0; ///< CompressedTable::compress
};

FillCompress timeFillCompress(const lalr::Lr0Automaton &A,
                              const lalr::LalrLookaheads &LA);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
