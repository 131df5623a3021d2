#include "pipeline.h"

#include "codegen/cemit.h"
#include "codegen/codegen.h"
#include "frontend/parser.h"
#include "fusion/models.h"
#include "sched/analysis.h"
#include "spans.h"

namespace bench {

using namespace pf;

const char* to_string(Model m) {
  switch (m) {
    case Model::kBaseline:
      return "baseline";
    case Model::kWisefuse:
      return "wisefuse";
    case Model::kSmartfuse:
      return "smartfuse";
    case Model::kNofuse:
      return "nofuse";
    case Model::kMaxfuse:
      return "maxfuse";
  }
  return "?";
}

namespace {

fusion::FusionModel fusion_model(Model m) {
  switch (m) {
    case Model::kSmartfuse:
      return fusion::FusionModel::kSmartfuse;
    case Model::kNofuse:
      return fusion::FusionModel::kNofuse;
    case Model::kMaxfuse:
      return fusion::FusionModel::kMaxfuse;
    default:
      return fusion::FusionModel::kWisefuse;
  }
}

}  // namespace

std::unique_ptr<Compiled> parse_and_analyze(const suite::Benchmark& b) {
  auto c = std::make_unique<Compiled>();
  c->scop.emplace(
      layer("frontend.parse", [&] { return frontend::parse_scop(b.source); }));
  ddg::AnalysisOptions aopts;
  aopts.jobs = 1;
  c->dg.emplace(layer("ddg.analyze", [&] {
    return ddg::DependenceGraph::analyze(*c->scop, aopts);
  }));
  return c;
}

void schedule_and_generate(Compiled& c, Model m) {
  if (m == Model::kBaseline) {
    c.schedule = layer("sched.identity_schedule",
                       [&] { return sched::identity_schedule(*c.scop); });
    layer("sched.annotate_dependences",
          [&] { sched::annotate_dependences(c.schedule, *c.dg); });
  } else {
    sched::SchedulerOptions sopts;
    sopts.relaxed_deps = c.reductions.relaxable;
    c.schedule = layer("fusion.compute_schedule", [&] {
      return fusion::compute_schedule_degrading(*c.scop, *c.dg,
                                                fusion_model(m), sopts);
    });
  }
  c.ast = layer("codegen.generate_ast",
                [&] { return codegen::generate_ast(*c.scop, c.schedule); });
}

std::unique_ptr<Compiled> compile(const suite::Benchmark& b, Model m) {
  std::unique_ptr<Compiled> c = parse_and_analyze(b);
  // tools/driver.cpp runs the reduction pass only when a transforming
  // model will consume it.
  if (m != Model::kBaseline)
    c->reductions = layer("analysis.reductions", [&] {
      return analysis::analyze_reductions_degrading(*c->scop, *c->dg);
    });
  schedule_and_generate(*c, m);
  c->c_source = layer("codegen.emit_c",
                      [&] { return codegen::emit_c(*c->ast, *c->scop); });
  return c;
}

codegen::AstPtr original_ast(const Compiled& c) {
  sched::Schedule ident = sched::identity_schedule(*c.scop);
  sched::annotate_dependences(ident, *c.dg);
  return codegen::generate_ast(*c.scop, ident);
}

}  // namespace bench
