// The polyfuse compile pipeline as the benchmark drives it: the public
// calls of each module in the order tools/driver.cpp makes them, each
// wrapped in a span (spans.h). Nothing here changes what the program
// computes; it only decides which calls an op makes.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "analysis/reductions.h"
#include "codegen/ast.h"
#include "ddg/dependences.h"
#include "ir/scop.h"
#include "sched/schedule.h"
#include "suite/suite.h"

namespace bench {

/// baseline is the original program order (identity schedule); the other
/// four are the paper's fusion models (fusion/models.h).
enum class Model { kBaseline, kWisefuse, kSmartfuse, kNofuse, kMaxfuse };
constexpr int kNumModels = 5;
const char* to_string(Model m);

/// Everything one compile produces. Heap-allocated because the
/// dependence graph keeps a pointer to the scop.
struct Compiled {
  std::optional<pf::ir::Scop> scop;
  std::optional<pf::ddg::DependenceGraph> dg;
  pf::analysis::ReductionInfo reductions;
  pf::sched::Schedule schedule;
  pf::codegen::AstPtr ast;
  std::string c_source;
};

/// PolyLang text to emitted C: parse_scop -> DependenceGraph::analyze
/// (jobs=1) -> analyze_reductions_degrading -> the schedule step ->
/// generate_ast -> emit_c. The schedule step is
/// fusion::compute_schedule_degrading, or identity_schedule +
/// annotate_dependences for baseline.
std::unique_ptr<Compiled> compile(const pf::suite::Benchmark& b, Model m);

/// Parse + dependence analysis only (the front of every op).
std::unique_ptr<Compiled> parse_and_analyze(const pf::suite::Benchmark& b);

/// Schedule `c` under `m` and generate its AST (no C emission).
void schedule_and_generate(Compiled& c, Model m);

/// The original-order AST of a parsed program (the interpreter reference).
pf::codegen::AstPtr original_ast(const Compiled& c);

}  // namespace bench
