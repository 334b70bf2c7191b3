//===- perfbench/src/Inputs.h - Seeded inputs and their oracle --*- C++ -*-===//
///
/// \file
/// Everything a workload sends, made from the seed before any timing
/// starts, together with the answer each request must get. The answers
/// come from independent constructions: table bytes from the YACC
/// propagation builder, parse verdicts from the Earley recognizer. None
/// of this work counts toward set-up time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "grammar/Grammar.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One gen-cold input: grammar text and the hash of the reference dense
/// table's serialized bytes.
struct GenInput {
  std::string Name;
  std::string Text;
  uint64_t RefHash = 0;
};

/// The 15 realistic corpus grammars plus two seeded random grammars (one
/// smaller and one larger than the corpus median, so the pooled median
/// does not move with the seed), in seeded order.
std::vector<GenInput> genColdInputs(uint64_t Seed, bool Corrupt);

/// One read request on the wire and the response body it must get.
/// Builds must match exactly; parses must start with Expect (the
/// reduction count that follows is not known to the oracle).
struct ReadRequest {
  std::string Grammar;
  bool IsParse = false;
  std::string Input; ///< parse sentence, space-separated terminals
  std::string Line;  ///< wire request line
  std::string Expect;
  std::string Class; ///< "<grammar>/build" or "<grammar>/parse"
};

/// Serve-warm-style reads over \p Grammars: for each grammar two build
/// requests (cache hits once warm) and, unless excludedFromParseTraffic,
/// eight parse sentences — seven
/// accepted ones at log-spaced lengths from 16 to 2048 tokens and one
/// mutated into a known reject.
std::vector<ReadRequest> readRequests(const std::vector<std::string> &Grammars,
                                      uint64_t Seed, bool Corrupt);

/// True when parses of \p G cannot be checked over the wire: precedence
/// declarations that make the LR parser's language a strict subset of the
/// grammar's (tiger's %nonassoc comparisons), so an Earley verdict is no
/// oracle; or a terminal spelled with '#', which the wire protocol reads
/// as the start of a comment (minilua's length operator).
bool excludedFromParseTraffic(const lalr::Grammar &G);

/// One step of the grammar author's script: an edit, then a build and a
/// parse of the edited grammar, with the responses each must get.
struct EditStep {
  std::string Grammar;
  std::string Kind;  ///< conflict | production | structural
  std::string Class; ///< "edit/<Kind>"
  std::string EditLine;
  std::string EditExpect;
  std::string BuildLine;
  std::string BuildExpect;
  std::string ParseLine;
  std::string ParseExpect;
  std::string PrevText; ///< normalized grammar text before the edit
  std::string Patch;    ///< the patch, as it follows "edit <grammar>"
  std::string NewText;  ///< normalized grammar text after the edit
};

/// The author's session: \p Prelude edits first, then \p Steps over and
/// over. Steps hold, for each grammar, every conflict-local,
/// production-local and structural edit that keeps the grammar free of
/// unresolved conflicts, in seeded order, each followed by its inverse, so
/// the grammars return to their settled text at the end of every cycle.
struct EditSession {
  std::vector<std::string> Prelude;
  std::vector<EditStep> Steps;
};
EditSession editScript(const std::vector<std::string> &Grammars,
                       uint64_t Seed);

/// "build <name> lalr1 states=N conflicts=N compressed", from the YACC
/// reference table.
std::string referenceBuildBody(const std::string &Name,
                               const std::string &Text);

/// The server keeps an edited grammar as print(parse(text)), starting
/// from the corpus source. The printer does not list nonterminals in the
/// order the parser numbers them, so for most corpus grammars the listing,
/// and the production ids a patch names, shift on every edit until the
/// text reaches a fixed point. Text is that fixed point; Rounds is how
/// many edits it takes to get there from the server's starting copy.
struct SettledText {
  std::string Text;
  unsigned Rounds = 0;
};
SettledText settledCorpusText(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
