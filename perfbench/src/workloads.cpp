#include "workloads.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>

#include "analysis/lint.h"
#include "analysis/locality.h"
#include "exec/interp.h"
#include "exec/jit.h"
#include "machine/perfmodel.h"
#include "pipeline.h"
#include "poly/set.h"
#include "spans.h"
#include "support/metrics.h"
#include "verify/verify.h"

namespace bench {

using namespace pf;
using support::Counter;
using support::Hist;

namespace {

constexpr Model kModels[kNumModels] = {Model::kBaseline, Model::kWisefuse,
                                       Model::kSmartfuse, Model::kNofuse,
                                       Model::kMaxfuse};

// suite_analyze checks every program at this parameter value: the
// smallest one every program's context admits (sp needs N >= 5).
constexpr i64 kAnalyzeN = 5;

// kernel_run sizes: every program's arrays exceed the reference machine's
// 2 MiB per-core L2, and all but lu and wupwise its 8 MiB over four cores;
// those two do O(N^3) work on N^2 data, where 8 MiB would take seconds per
// pass. tce's 8 MiB arrays make its reduction kernels fail (README).
const std::map<std::string, i64>& kernel_sizes() {
  static const std::map<std::string, i64> sizes = {
      {"gemsfdtd", 100}, {"swim", 800}, {"applu", 96},  {"bt", 112},
      {"sp", 112},       {"advect", 1536}, {"lu", 576}, {"tce", 32},
      {"gemver", 1600},  {"wupwise", 300},
  };
  return sizes;
}

// OpenMP threads in each kernel_run child. The kernels run through
// libgomp with a team of one: on the shared 4-core reference machine two
// threads gave op_s_gm from 0.014 s to 0.024 s over four interleaved runs,
// one thread 0.026 s to 0.027 s (README).
constexpr int kKernelThreads = 1;

// ---------------------------------------------------------------------------
// Per-op counters

struct Counts {
  std::array<i64, support::kNumCounters> counters{};
  std::array<i64, support::kNumHists> hist_sums{};

  static Counts read(const support::MetricsRegistry& r) {
    Counts c;
    for (std::size_t i = 0; i < support::kNumCounters; ++i)
      c.counters[i] = r.get(static_cast<Counter>(i));
    for (std::size_t i = 0; i < support::kNumHists; ++i)
      c.hist_sums[i] = r.hist_sum(static_cast<Hist>(i));
    return c;
  }
  void add(const Counts& o) {
    for (std::size_t i = 0; i < counters.size(); ++i)
      counters[i] += o.counters[i];
    for (std::size_t i = 0; i < hist_sums.size(); ++i)
      hist_sums[i] += o.hist_sums[i];
  }
  /// Equal on everything the metrics registry promises is deterministic
  /// (wall-clock histograms and allocator-dependent counters excluded).
  bool deterministic_equal(const Counts& o) const {
    for (std::size_t i = 0; i < counters.size(); ++i)
      if (!support::counter_is_runtime(static_cast<Counter>(i)) &&
          counters[i] != o.counters[i])
        return false;
    for (std::size_t i = 0; i < hist_sums.size(); ++i)
      if (!support::hist_is_runtime(static_cast<Hist>(i)) &&
          hist_sums[i] != o.hist_sums[i])
        return false;
    return true;
  }
  i64 get(Counter c) const { return counters[static_cast<std::size_t>(c)]; }
  i64 sum(Hist h) const { return hist_sums[static_cast<std::size_t>(h)]; }
};

struct Sample {
  int input = 0;
  int pass = 0;
  bool traced = false;
  bool ok = false;
  double seconds = 0;  // the op's timed region
  Counts counts;
  std::map<std::string, double> self;  // traced ops: self seconds per span
};

// Runs `body` as one compile-service request: a fresh metrics registry and
// private solve/count caches, as cli::run_request gives each request, with
// the counters read before the scopes close. Times the whole request.
template <class F>
Sample request_op(F&& body) {
  Sample s;
  const double t0 = now_s();
  {
    support::MetricsScope metrics;
    poly::SolveCacheScope caches;
    try {
      body();
      s.ok = true;
    } catch (const std::exception& e) {
      std::printf("op failed: %s\n", e.what());
    }
    s.counts = Counts::read(metrics.registry());
  }
  s.seconds = now_s() - t0;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// Fresh data for one program at `params`, as every test and bench uses.
exec::ArrayStore initialised_store(const ir::Scop& scop,
                                   const IntVector& params) {
  exec::ArrayStore store(scop, params);
  suite::init_store(store);
  return store;
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up repetitions whose median is setup_s (each builds the same state).
  virtual int setup_repeats() const { return 11; }
  virtual void setup() = 0;
  /// A pass over every input takes about this long on the reference
  /// machine (4-core Xeon, see README); it sets how many passes a run of
  /// a given length makes, the same number on every run.
  virtual double pass_seconds() const = 0;
  virtual int num_inputs() const = 0;
  virtual std::string label(int input) const = 0;
  /// The ops of one input in one pass, appended to `out` (one for the
  /// in-process workloads, kExecutionsPerChild for kernel_run).
  virtual void run_input(int input, std::vector<Sample>& out) = 0;
  /// Whether the ops' timed regions are in this process (spans cover them).
  virtual bool in_process() const { return true; }
  /// Output checks after the timed ops; appends one line per problem.
  virtual void check(std::vector<std::string>& problems) = 0;
  /// End-to-end ratio metrics; nullopt where the workload makes none.
  virtual std::optional<double> modeled_speedup_gm() { return std::nullopt; }
  virtual std::optional<double> kernel_speedup_gm(
      const std::vector<double>& /*input_medians*/) {
    return std::nullopt;
  }
  /// Per-layer figures that are not spans or counters (0 where the
  /// workload has no such layer).
  virtual double modeled_cycles() { return 0; }
  virtual double emitted_c_bytes() const { return 0; }
};

const std::vector<suite::Benchmark>& programs() {
  return suite::all_benchmarks();
}

// Original-order reference results of one program at `params`.
exec::ArrayStore reference_store(const Compiled& c, const IntVector& params) {
  exec::ArrayStore store = initialised_store(*c.scop, params);
  exec::interpret(*original_ast(c), store);
  return store;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// -- suite_compile ----------------------------------------------------------

class SuiteCompile final : public Workload {
 public:
  void setup() override {
    // The references the output checks compare against: each program in
    // its original order, interpreted at test_params.
    originals_.clear();
    references_.clear();
    for (const suite::Benchmark& b : programs()) {
      originals_.push_back(parse_and_analyze(b));
      references_.push_back(reference_store(*originals_.back(), b.test_params));
    }
    last_.clear();
    last_.resize(num_inputs());
  }
  double pass_seconds() const override { return 35; }
  int num_inputs() const override {
    return static_cast<int>(programs().size()) * kNumModels;
  }
  std::string label(int input) const override {
    return programs()[input / kNumModels].name + "/" +
           to_string(kModels[input % kNumModels]);
  }
  void run_input(int input, std::vector<Sample>& out) override {
    const suite::Benchmark& b = programs()[input / kNumModels];
    last_[input].reset();
    out.push_back(request_op(
        [&] { last_[input] = compile(b, kModels[input % kNumModels]); }));
  }
  void check(std::vector<std::string>& problems) override {
    for (std::size_t p = 0; p < programs().size(); ++p) {
      const suite::Benchmark& b = programs()[p];
      const exec::ArrayStore& ref = references_[p];
      for (int m = 0; m < kNumModels; ++m) {
        if (!last_[p * kNumModels + m]) continue;  // failed op, counted
        const Compiled& c = *last_[p * kNumModels + m];
        const std::string name = label(static_cast<int>(p) * kNumModels + m);
        const verify::Report report =
            verify::run_all(*c.scop, *c.dg, c.schedule, c.ast.get());
        if (!report.ok())
          problems.push_back(name + ": verify: " + report.summary());
        exec::ArrayStore got = initialised_store(*c.scop, b.test_params);
        exec::interpret(*c.ast, got);
        // Relaxed reduction dependences may reassociate floating-point
        // sums: the --validate contract allows 1e-9 there, 0 elsewhere.
        const double tol = c.schedule.relaxed_deps.empty() ? 0.0 : 1e-9;
        const double diff = exec::ArrayStore::max_abs_diff(ref, got);
        if (!(diff <= tol))
          problems.push_back(name + ": interpreted output differs from the "
                             "original program by " + fmt("%g", diff));
        if (c.c_source.find("pf_kernel") == std::string::npos)
          problems.push_back(name + ": emitted C has no pf_kernel");
      }
    }
  }
  // The paper's Fig. 7 wisefuse column: baseline over wisefuse modeled
  // cycles at bench_params, per program.
  std::optional<double> modeled_speedup_gm() override {
    evaluate_models();
    std::vector<double> ratios;
    for (const auto& [base, wise] : cycles_) ratios.push_back(base / wise);
    return geomean(ratios);
  }
  // Modeled cycles of the ten wisefuse variants, summed.
  double modeled_cycles() override {
    evaluate_models();
    double total = 0;
    for (const auto& bw : cycles_) total += bw.second;
    return total;
  }

 private:
  void evaluate_models() {
    if (!cycles_.empty()) return;
    for (std::size_t p = 0; p < programs().size(); ++p) {
      if (!last_[p * kNumModels + static_cast<int>(Model::kBaseline)] ||
          !last_[p * kNumModels + static_cast<int>(Model::kWisefuse)])
        continue;  // failed op, counted
      auto cycles = [&](Model m) {
        const Compiled& c = *last_[p * kNumModels + static_cast<int>(m)];
        exec::ArrayStore store =
            initialised_store(*c.scop, programs()[p].bench_params);
        return machine::evaluate(*c.ast, store).modeled_cycles;
      };
      cycles_.emplace_back(cycles(Model::kBaseline), cycles(Model::kWisefuse));
    }
  }

  std::vector<std::unique_ptr<Compiled>> originals_;  // per program
  std::vector<exec::ArrayStore> references_;          // per program
  std::vector<std::unique_ptr<Compiled>> last_;  // per input, latest op
  std::vector<std::pair<double, double>> cycles_;  // (baseline, wisefuse)
};

// -- suite_analyze ----------------------------------------------------------

class SuiteAnalyze final : public Workload {
 public:
  void setup() override {
    // The counts the analyzer must reproduce, read off an interpreter
    // trace of each program in its original order.
    truths_.clear();
    for (const suite::Benchmark& b : programs()) {
      const std::unique_ptr<Compiled> c = parse_and_analyze(b);
      if (!c->scop->context().contains(params(*c->scop)))
        throw std::runtime_error(b.name + ": N=" + std::to_string(kAnalyzeN) +
                                 " violates the program's context");
      truths_.push_back(trace_counts(*c));
    }
    last_.clear();
    last_.resize(programs().size());
  }
  double pass_seconds() const override { return 2.5; }
  int num_inputs() const override {
    return static_cast<int>(programs().size());
  }
  std::string label(int input) const override {
    return programs()[input].name + "@N=" + std::to_string(kAnalyzeN);
  }
  void run_input(int input, std::vector<Sample>& out) override {
    const suite::Benchmark& b = programs()[input];
    Result r;
    out.push_back(request_op([&] {
      r.compiled = parse_and_analyze(b);
      Compiled& c = *r.compiled;
      layer("analysis.lint", [&] { return analysis::run_lint(*c.scop, *c.dg); });
      r.locality = layer("analysis.locality", [&] {
        return analysis::analyze_locality(*c.scop, *c.dg, params(*c.scop));
      });
      c.reductions = layer("analysis.reductions", [&] {
        return analysis::analyze_reductions(*c.scop, *c.dg);
      });
      schedule_and_generate(c, Model::kNofuse);
      r.verify = layer("verify.run_all", [&] {
        return verify::run_all(*c.scop, *c.dg, c.schedule, c.ast.get());
      });
    }));
    last_[input] = out.back().ok ? std::move(r) : Result{};
  }
  void check(std::vector<std::string>& problems) override {
    for (std::size_t p = 0; p < programs().size(); ++p) {
      const Result& r = last_[p];
      if (!r.compiled) continue;  // failed op, counted
      const std::string name = label(static_cast<int>(p));
      if (!r.verify.ok())
        problems.push_back(name + ": verify: " + r.verify.summary());
      check_counts(name, *r.compiled->scop, truths_[p], r.locality, problems);
    }
  }

 private:
  struct Result {
    std::unique_ptr<Compiled> compiled;
    analysis::LocalityReport locality;
    verify::Report verify;
  };

  static IntVector params(const ir::Scop& scop) {
    return IntVector(scop.num_params(), kAnalyzeN);
  }

  // Statement instances, and distinct cells and accesses per array.
  struct Counted {
    std::vector<i64> instances, footprint, accesses;
  };

  static Counted trace_counts(const Compiled& c) {
    const std::size_t num_arrays = c.scop->arrays().size();
    std::vector<std::set<i64>> cells(num_arrays);
    Counted t;
    t.accesses.assign(num_arrays, 0);
    exec::ArrayStore store = initialised_store(*c.scop, params(*c.scop));
    const exec::InterpStats stats = exec::interpret(
        *original_ast(c), store, [&](std::size_t array, i64 idx, bool) {
          cells[array].insert(idx);
          ++t.accesses[array];
        });
    for (std::size_t n : stats.per_statement)
      t.instances.push_back(static_cast<i64>(n));
    for (const std::set<i64>& touched : cells)
      t.footprint.push_back(static_cast<i64>(touched.size()));
    return t;
  }

  // Every count the analyzer reports must equal the interpreter's.
  static void check_counts(const std::string& name, const ir::Scop& scop,
                           const Counted& want,
                           const analysis::LocalityReport& rep,
                           std::vector<std::string>& problems) {
    auto mismatch = [&](const std::string& what, const poly::Count& got,
                        i64 expected) {
      if (!got.is_exact() || got.value != expected)
        problems.push_back(name + ": " + what + " counted " + got.to_string() +
                           ", interpreter saw " + std::to_string(expected));
    };
    if (rep.statements.size() != want.instances.size() ||
        rep.arrays.size() != want.footprint.size()) {
      problems.push_back(name + ": report does not cover the program");
      return;
    }
    for (const analysis::StatementVolume& sv : rep.statements)
      mismatch("instances of S" + std::to_string(sv.stmt), sv.instances,
               want.instances[sv.stmt]);
    for (const analysis::ArrayLocality& al : rep.arrays) {
      const std::string& array = scop.arrays()[al.array].name;
      mismatch("footprint of " + array, al.footprint, want.footprint[al.array]);
      mismatch("accesses of " + array, al.accesses, want.accesses[al.array]);
    }
  }

  std::vector<Counted> truths_;  // per program
  std::vector<Result> last_;
};

// -- kernel_run -------------------------------------------------------------

// Kernel executions per child process in each pass.
constexpr int kExecutionsPerChild = 5;

// What a kernel child sends back over its pipe, once per execution.
struct ChildReport {
  double seconds = 0;
  double rel_diff = 0;  // vs the reference store, when one is given
};

// Largest |got - want| / max(1, |want|) over every array element.
double max_rel_diff(const exec::ArrayStore& want, const exec::ArrayStore& got) {
  double worst = 0;
  for (std::size_t a = 0; a < want.num_arrays(); ++a)
    for (std::size_t i = 0; i < want.size(a); ++i) {
      const double w = want.data(a)[i];
      const double d =
          std::fabs(got.data(a)[i] - w) / std::max(1.0, std::fabs(w));
      if (std::isnan(d)) return d;
      worst = std::max(worst, d);
    }
  return worst;
}

class KernelRun final : public Workload {
 public:
  KernelRun() {
    // libgomp reads this when the first kernel object is loaded.
    ::setenv("OMP_NUM_THREADS", std::to_string(kKernelThreads).c_str(), 1);
  }
  int setup_repeats() const override { return 1; }
  void setup() override {
    kernels_.clear();
    pristine_.clear();
    for (const suite::Benchmark& b : programs()) {
      for (Model m : kModels) {
        Kernel k;
        k.compiled = compile(b, m);
        std::string error;
        k.jit = layer("exec.jit_compile", [&] {
          return exec::JitKernel::compile(k.compiled->c_source, "pf_kernel",
                                          {}, &error);
        });
        if (!k.jit)
          throw std::runtime_error(b.name + "/" + to_string(m) +
                                   ": JIT compile failed: " + error);
        emitted_bytes_ += static_cast<double>(k.compiled->c_source.size());
        kernels_.push_back(std::move(k));
      }
      // Initialising a program's arrays costs many kernel runs, so it is
      // done once here; each execution gets a fresh copy.
      const ir::Scop& scop = *kernels_.back().compiled->scop;
      pristine_.push_back(initialised_store(
          scop, IntVector(scop.num_params(), kernel_sizes().at(b.name))));
    }
  }
  double pass_seconds() const override { return 17; }
  int num_inputs() const override {
    return static_cast<int>(kernels_.size());
  }
  std::string label(int input) const override {
    return programs()[input / kNumModels].name + "/" +
           to_string(kModels[input % kNumModels]);
  }
  bool in_process() const override { return false; }
  void run_input(int input, std::vector<Sample>& out) override {
    for (const std::optional<ChildReport>& r :
         run_executions(kernels_[input], pristine_[input / kNumModels], nullptr,
                        kExecutionsPerChild)) {
      Sample s;
      s.ok = r.has_value();
      if (r) {
        s.seconds = r->seconds;
        s.self["exec.kernel"] = r->seconds;
      }
      out.push_back(std::move(s));
    }
  }
  void check(std::vector<std::string>& problems) override {
    for (std::size_t p = 0; p < programs().size(); ++p) {
      const IntVector& params = programs()[p].test_params;
      const Compiled& base = *kernels_[p * kNumModels].compiled;
      const exec::ArrayStore ref = reference_store(base, params);
      const exec::ArrayStore fresh = initialised_store(*base.scop, params);
      for (int m = 0; m < kNumModels; ++m) {
        const Kernel& k = kernels_[p * kNumModels + m];
        const std::string name = label(static_cast<int>(p) * kNumModels + m);
        const std::optional<ChildReport> r =
            run_executions(k, fresh, &ref, 1).front();
        if (!r) {
          problems.push_back(name + ": kernel run at test size failed");
          continue;
        }
        // An OpenMP reduction clause splits a sum across threads, so a
        // kernel whose schedule relaxed reduction dependences may differ
        // from the serial order in the last bits: it gets the --validate
        // tolerance, scaled to the magnitude of the value. Every other
        // kernel must match exactly.
        const double tol =
            k.compiled->schedule.relaxed_deps.empty() ? 0.0 : 1e-9;
        if (!(r->rel_diff <= tol))
          problems.push_back(name + ": kernel output differs from the "
                             "interpreted original by " +
                             fmt("%g", r->rel_diff) + " (relative)");
      }
    }
  }
  std::optional<double> kernel_speedup_gm(
      const std::vector<double>& medians) override {
    std::vector<double> ratios;
    for (std::size_t p = 0; p < programs().size(); ++p) {
      const double base =
          medians[p * kNumModels + static_cast<int>(Model::kBaseline)];
      const double wise =
          medians[p * kNumModels + static_cast<int>(Model::kWisefuse)];
      // A program whose kernels fail every time has no ratio.
      if (base > 0 && wise > 0) ratios.push_back(base / wise);
    }
    return geomean(ratios);
  }
  double emitted_c_bytes() const override { return emitted_bytes_; }

 private:
  struct Kernel {
    std::unique_ptr<Compiled> compiled;
    std::optional<exec::JitKernel> jit;
  };

  // Runs `count` executions of one kernel in forked children, one child
  // at a time, and times only the kernel calls. Each execution gets its
  // own copy of the initialised arrays `pristine`. The parent never enters an
  // OpenMP region, so every child starts with an idle runtime. A child
  // that dies fails the execution it was in; a new child takes the rest.
  // Children exit without destroying their JitKernel copies: unloading a
  // kernel after an OpenMP region (~JitKernel's dlclose) crashes at
  // random, depending on thread count and timing, so it is not an op.
  // Returns one entry per execution, nullopt where it failed.
  std::vector<std::optional<ChildReport>> run_executions(
      const Kernel& k, const exec::ArrayStore& pristine,
      const exec::ArrayStore* reference, int count) {
    std::vector<std::optional<ChildReport>> out;
    while (static_cast<int>(out.size()) < count) {
      const int todo = count - static_cast<int>(out.size());
      int fds[2];
      if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
      std::fflush(stdout);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::close(fds[0]);
        ::prctl(PR_SET_DUMPABLE, 0);  // a crash leaves no core file
        exec::ArrayStore store = pristine;
        for (int i = 0; i < todo; ++i) {
          if (i > 0) store = pristine;
          ChildReport r;
          const double t0 = now_s();
          k.jit->run(store);
          r.seconds = now_s() - t0;
          if (reference != nullptr) r.rel_diff = max_rel_diff(*reference, store);
          if (::write(fds[1], &r, sizeof r) != sizeof r) ::_exit(1);
        }
        ::_exit(0);
      }
      ::close(fds[1]);
      // A child silent for a minute is killed; its execution fails.
      pollfd pfd{fds[0], POLLIN, 0};
      ChildReport r;
      std::size_t got = 0;
      bool hung = false;
      while (static_cast<int>(out.size()) < count) {
        if (::poll(&pfd, 1, 60000) <= 0) {
          hung = true;
          break;
        }
        const ssize_t n =
            ::read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
        if (got == sizeof r) {
          out.push_back(r);
          got = 0;
        }
      }
      ::close(fds[0]);
      if (hung) ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (static_cast<int>(out.size()) < count) out.push_back(std::nullopt);
    }
    return out;
  }

  std::vector<Kernel> kernels_;
  std::vector<exec::ArrayStore> pristine_;  // per program, kernel size
  double emitted_bytes_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "suite_compile") return std::make_unique<SuiteCompile>();
  if (name == "suite_analyze") return std::make_unique<SuiteAnalyze>();
  if (name == "kernel_run") return std::make_unique<KernelRun>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metrics

// Span name -> per-layer metric (self seconds per op). "op" is the root
// span of an in-process op: what it spends outside the named calls, in
// the request scopes (metrics registry, solve and count caches) and in the
// benchmark's own glue.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"frontend.parse", "frontend.parse_s"},
    {"ddg.analyze", "ddg.analyze_s"},
    {"analysis.reductions", "analysis.reductions_s"},
    {"fusion.compute_schedule", "fusion.compute_schedule_s"},
    {"sched.identity_schedule", "sched.identity_schedule_s"},
    {"sched.annotate_dependences", "sched.annotate_dependences_s"},
    {"codegen.generate_ast", "codegen.generate_ast_s"},
    {"codegen.emit_c", "codegen.emit_c_s"},
    {"analysis.lint", "analysis.lint_s"},
    {"analysis.locality", "analysis.locality_s"},
    {"verify.run_all", "verify.run_all_s"},
    {"exec.kernel", "exec.kernel_s"},
    {"op", "op.unattributed_s"},
};

double ratio(i64 num, i64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Counters of one pass (the sum over its ops; every pass attempts the
// same ops, and run_workload holds them equal between passes). The two
// busy times are per op, like the span self times. Every ratio is
// reported next to its base.
void counter_layers(const Counts& pass, int ops_per_pass,
                    std::vector<Metric>& out) {
  auto count = [&](const char* name, i64 v) {
    out.push_back({name, static_cast<double>(v), "count"});
  };
  auto busy = [&](const char* name, Hist h) {
    out.push_back({name, static_cast<double>(pass.sum(h)) / 1e6 / ops_per_pass,
                   "s"});
  };
  count("lp.ilp_solves", pass.get(Counter::kIlpSolves));
  count("lp.ilp_nodes", pass.get(Counter::kIlpNodes));
  count("lp.simplex_pivots", pass.get(Counter::kSimplexPivots));
  busy("lp.ilp_busy_s", Hist::kIlpSolveMicros);
  const i64 fast = pass.get(Counter::kFastlaneSolves);
  const i64 lane_base = fast + pass.get(Counter::kFastlaneFallbacks);
  out.push_back({"lp.fastlane_rate", ratio(fast, lane_base), "ratio"});
  count("lp.fastlane_base_solves", lane_base);
  const i64 generated = pass.get(Counter::kFmeRowsGenerated);
  count("poly.fme_rows_generated", generated);
  out.push_back({"poly.fme_rows_dropped_ratio",
                 ratio(pass.get(Counter::kFmeRowsDropped), generated),
                 "ratio"});
  const i64 hits = pass.get(Counter::kSolveCacheHits);
  const i64 lookups = hits + pass.get(Counter::kSolveCacheMisses);
  out.push_back({"poly.solve_cache_hit_ratio", ratio(hits, lookups), "ratio"});
  count("poly.solve_cache_lookups", lookups);
  count("ddg.dep_pairs", pass.get(Counter::kDepPairsAnalyzed));
  count("ddg.dep_polyhedra", pass.get(Counter::kDepPolyhedraBuilt));
  count("poly.count_solves", pass.get(Counter::kCountSolves));
  count("poly.count_steps", pass.get(Counter::kCountSteps));
  busy("poly.count_busy_s", Hist::kCountSolveMicros);
  const i64 count_hits = pass.get(Counter::kCountCacheHits);
  const i64 count_lookups = count_hits + pass.get(Counter::kCountCacheMisses);
  out.push_back({"poly.count_cache_hit_ratio", ratio(count_hits, count_lookups),
                 "ratio"});
  count("poly.count_cache_lookups", count_lookups);
  count("poly.count_unknowns", pass.get(Counter::kCountUnknowns));
}

// Median op time per input over the successful ops; 0 for an input whose
// ops all failed.
std::vector<double> per_input_medians(const std::vector<Sample>& samples,
                                      int num_inputs, bool traced) {
  std::vector<std::vector<double>> by_input(num_inputs);
  for (const Sample& s : samples)
    if (s.ok && s.traced == traced) by_input[s.input].push_back(s.seconds);
  std::vector<double> out;
  for (const auto& v : by_input) out.push_back(median(v));
  return out;
}

double positive_geomean(const std::vector<double>& v) {
  std::vector<double> pos;
  for (double x : v)
    if (x > 0) pos.push_back(x);
  return geomean(pos);
}

std::vector<Metric> end_to_end(Workload& w, const std::vector<Sample>& samples,
                               const std::vector<double>& medians,
                               double setup_s) {
  std::vector<double> times;
  double measured = 0;
  for (const Sample& s : samples)
    if (s.ok) {
      times.push_back(s.seconds);
      measured += s.seconds;
    }
  // A ratio the workload does not produce reads 1 (see README).
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s",
       measured > 0 ? static_cast<double>(times.size()) / measured : 0.0,
       "1/s"},
      {"op_s_p50", percentile(times, 0.5), "s"},
      {"op_s_p90", percentile(times, 0.9), "s"},
      {"op_s_gm", positive_geomean(medians), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"modeled_speedup_gm", w.modeled_speedup_gm().value_or(1.0), "x"},
      {"kernel_speedup_gm", w.kernel_speedup_gm(medians).value_or(1.0), "x"},
  };
}

std::vector<Metric> per_layer(Workload& w, const std::vector<Sample>& samples,
                              const std::vector<double>& medians,
                              const Counts& pass_counts) {
  std::vector<Metric> out;
  const int n = w.num_inputs();
  std::map<std::string, double> self_total;
  int traced_ops = 0;
  for (const Sample& s : samples) {
    if (!s.traced || !s.ok) continue;
    ++traced_ops;
    for (const auto& [name, secs] : s.self) self_total[name] += secs;
  }
  for (const auto& [span, metric] : kLayerSpans)
    out.push_back(
        {metric, traced_ops > 0 ? self_total[span] / traced_ops : 0.0, "s"});
  // Set-up spans (op -1): the JIT compile of each kernel_run variant.
  const std::map<std::string, double> setup_self =
      SpanRecorder::instance().self_seconds(-1);
  const auto jit = setup_self.find("exec.jit_compile");
  out.push_back({"exec.jit_compile_s",
                 jit == setup_self.end() ? 0.0 : jit->second / n, "s"});
  counter_layers(pass_counts, n, out);
  out.push_back({"machine.modeled_cycles", w.modeled_cycles(), "cycles"});
  out.push_back({"codegen.emit_c_bytes", w.emitted_c_bytes(), "bytes"});

  const std::vector<double> traced = per_input_medians(samples, n, true);
  std::vector<double> t_pos, u_pos;
  for (int i = 0; i < n; ++i)
    if (traced[i] > 0 && medians[i] > 0) {
      t_pos.push_back(traced[i]);
      u_pos.push_back(medians[i]);
    }
  out.push_back({"trace.overhead_s", geomean(t_pos) - geomean(u_pos), "s"});

  // Per input: traced median and the largest layer's share of it.
  std::printf("# per-input traced median op time and largest self time\n");
  for (int i = 0; i < n; ++i) {
    std::map<std::string, std::vector<double>> by_layer;
    for (const Sample& s : samples)
      if (s.traced && s.ok && s.input == i)
        for (const auto& [name, secs] : s.self) by_layer[name].push_back(secs);
    std::string top = "-";
    double top_s = 0;
    for (const auto& [name, v] : by_layer)
      if (median(v) > top_s) {
        top_s = median(v);
        top = name;
      }
    std::printf("traced %-22s median_s %.6f untraced_s %.6f top %s %.1f%%\n",
                w.label(i).c_str(), traced[i], medians[i], top.c_str(),
                traced[i] > 0 ? 100.0 * top_s / traced[i] : 0.0);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"suite_compile",
                                                 "suite_analyze", "kernel_run"};
  return names;
}

RunResult run_workload(const RunOptions& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload);
  if (!w) throw std::runtime_error("unknown workload '" + o.workload + "'");
  SpanRecorder& rec = SpanRecorder::instance();

  // Set-up, repeated where it is cheap; its median is setup_s. A traced
  // run records spans in the last repetition.
  std::vector<double> setups;
  for (int i = 0; i < w->setup_repeats(); ++i) {
    rec.set_enabled(o.trace && i + 1 == w->setup_repeats());
    const double t0 = now_s();
    w->setup();
    setups.push_back(now_s() - t0);
  }
  rec.set_enabled(false);

  // Whole passes over every input, each in a fresh seeded shuffle, enough
  // to fill the run time on the reference machine; a fixed pass count
  // keeps the percentiles comparable between runs. A traced run follows
  // each untraced pass with a traced one, so the tracing overhead can be
  // read off without drift over the run favouring either kind.
  const int n = w->num_inputs();
  std::mt19937_64 rng(o.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<Sample> samples;
  auto run_pass = [&](int pass, bool traced) {
    std::shuffle(order.begin(), order.end(), rng);
    for (int input : order) {
      const std::size_t first = samples.size();
      const int id = static_cast<int>(first);
      current_op() = id;
      rec.set_enabled(traced);
      if (traced && w->in_process())
        layer("op", [&] { w->run_input(input, samples); });
      else
        w->run_input(input, samples);
      rec.set_enabled(false);
      for (std::size_t i = first; i < samples.size(); ++i) {
        samples[i].input = input;
        samples[i].pass = pass;
        samples[i].traced = traced;
        if (traced && w->in_process()) samples[i].self = rec.self_seconds(id);
      }
    }
  };
  const int untraced_passes =
      std::max(1, static_cast<int>(std::ceil(o.seconds / w->pass_seconds())));
  int passes = 0;
  for (int i = 0; i < untraced_passes; ++i) {
    run_pass(passes++, false);
    if (o.trace) run_pass(passes++, true);
  }

  // Failed ops are counted, not checked: `correct` speaks of the outputs
  // of the ops that ran.
  RunResult result;
  std::map<std::string, int> failures;
  for (const Sample& s : samples) {
    ++result.attempted;
    if (!s.ok) {
      ++result.failed;
      ++failures[w->label(s.input)];
    }
  }
  for (const auto& [label, count] : failures)
    std::printf("failed %-22s %d op(s)\n", label.c_str(), count);

  std::vector<std::string> problems;
  w->check(problems);

  // Counters must repeat exactly for every input between passes.
  std::vector<const Sample*> first(n, nullptr);
  Counts pass_counts;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    if (first[s.input] == nullptr) {
      first[s.input] = &s;
      pass_counts.add(s.counts);
    } else if (!s.counts.deterministic_equal(first[s.input]->counts)) {
      problems.push_back(w->label(s.input) + ": counters differ between pass " +
                         std::to_string(first[s.input]->pass) + " and pass " +
                         std::to_string(s.pass));
    }
  }

  const std::vector<double> medians = per_input_medians(samples, n, false);
  std::printf("# per-input median op time, %d untraced pass(es)\n",
              untraced_passes);
  for (int i = 0; i < n; ++i)
    std::printf("input %-22s median_s %.6f\n", w->label(i).c_str(), medians[i]);

  if (o.trace) {
    result.metrics = per_layer(*w, samples, medians, pass_counts);
    if (!o.spans_out.empty() && !rec.write_json(o.spans_out))
      problems.push_back("cannot write spans to " + o.spans_out);
  } else {
    result.metrics = end_to_end(*w, samples, medians, median(setups));
  }

  for (const std::string& p : problems)
    std::printf("CHECK FAILED %s\n", p.c_str());
  result.correct = problems.empty();
  return result;
}

}  // namespace bench
