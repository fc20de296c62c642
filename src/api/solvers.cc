// The registry's fixed name table (api/registry.h) and the adapters behind
// it. An adapter validates the options, installs SolverOptions::threads,
// and fetches the context's anchor-free decomposition (and, for every
// solver but base and akt, its triangle index) before it calls the
// solver's core entry, which fills the whole SolveResult; `seconds`
// therefore measures the solve on warm shared state.

#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/solver.h"
#include "core/akt.h"
#include "core/base_greedy.h"
#include "core/base_plus.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// A core entry with its inputs fetched from the context.
using CoreEntry = StatusOr<SolveResult> (*)(SolverContext&,
                                            const SolverOptions&);

struct Builtin {
  const char* name;
  CoreEntry run;
};

// Sorted by name, so KnownSolvers lists them in order after "akt:<k>".
// base, base+ and gas must select identical anchors (the api and
// equivalence tests assert it through the registry).
const Builtin kBuiltins[] = {
    {"base",
     [](SolverContext& c, const SolverOptions& o) -> StatusOr<SolveResult> {
       return RunBaseGreedy(c.graph(), c.Decomposition(), o);
     }},
    {"base+",
     [](SolverContext& c, const SolverOptions& o) -> StatusOr<SolveResult> {
       const TrussDecomposition& seed = c.Decomposition();
       return RunBasePlus(c.graph(), seed, c.Triangles(), o);
     }},
    {"exact",
     [](SolverContext& c, const SolverOptions& o) -> StatusOr<SolveResult> {
       const TrussDecomposition& base = c.Decomposition();
       return RunExact(c.graph(), base, c.Triangles(), o);
     }},
    {"gas",
     [](SolverContext& c, const SolverOptions& o) -> StatusOr<SolveResult> {
       const TrussDecomposition& seed = c.Decomposition();
       return RunGas(c.graph(), seed, c.Triangles(), o);
     }},
    {"rand",
     [](SolverContext& c, const SolverOptions& o) {
       const TrussDecomposition& base = c.Decomposition();
       return RunRandomBaseline(c.graph(), base, c.Triangles(),
                                RandomPoolKind::kAllEdges, o);
     }},
    {"sup",
     [](SolverContext& c, const SolverOptions& o) {
       const TrussDecomposition& base = c.Decomposition();
       return RunRandomBaseline(c.graph(), base, c.Triangles(),
                                RandomPoolKind::kTopSupport, o);
     }},
    {"tur",
     [](SolverContext& c, const SolverOptions& o) {
       const TrussDecomposition& base = c.Decomposition();
       return RunRandomBaseline(c.graph(), base, c.Triangles(),
                                RandomPoolKind::kTopRouteSize, o);
     }},
};

class BuiltinSolver : public Solver {
 public:
  explicit BuiltinSolver(const Builtin& builtin) : builtin_(builtin) {}

  std::string Name() const override { return builtin_.name; }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    Status status = ValidateSolverOptions(context.graph(), options);
    if (!status.ok()) return status;
    ScopedParallelism parallelism(options.threads);
    return builtin_.run(context, options);
  }

 private:
  const Builtin& builtin_;
};

// AKT vertex anchoring at a fixed level k ("akt:<k>").
class AktSolver : public Solver {
 public:
  explicit AktSolver(uint32_t k) : k_(k) {}

  std::string Name() const override { return "akt:" + std::to_string(k_); }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    Status status = ValidateVertexSolverOptions(context.graph(), options);
    if (!status.ok()) return status;
    ScopedParallelism parallelism(options.threads);
    return RunAkt(context.graph(), context.Decomposition(), k_, options);
  }

 private:
  uint32_t k_;
};

StatusOr<std::unique_ptr<Solver>> MakeAktSolver(const std::string& name) {
  // name is "akt:<k>"; the caller matched the "akt:" head.
  const std::string param = name.substr(4);
  if (param.empty() ||
      param.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(
        "akt solver: expected \"akt:<k>\" with integer k >= 3, got \"" +
        name + "\"");
  }
  uint64_t k = 0;
  for (char ch : param) {
    k = k * 10 + static_cast<uint64_t>(ch - '0');
    if (k > 0xffffffffu) {
      return Status::InvalidArgument("akt solver: k out of range in \"" +
                                     name + "\"");
    }
  }
  if (k < 3) {
    return Status::InvalidArgument(
        "akt solver: k must satisfy 3 <= k (got \"" + name + "\")");
  }
  return std::unique_ptr<Solver>(
      std::make_unique<AktSolver>(static_cast<uint32_t>(k)));
}

}  // namespace

StatusOr<std::unique_ptr<Solver>> SolverRegistry::Create(
    const std::string& name) {
  for (const Builtin& builtin : kBuiltins) {
    if (name == builtin.name) {
      return std::unique_ptr<Solver>(std::make_unique<BuiltinSolver>(builtin));
    }
  }
  if (name.starts_with("akt:")) return MakeAktSolver(name);
  std::string known;
  for (const std::string& s : KnownSolvers()) {
    if (!known.empty()) known += ", ";
    known += s;
  }
  return Status::NotFound("unknown solver \"" + name + "\" (known: " + known +
                          ")");
}

std::vector<std::string> SolverRegistry::KnownSolvers() {
  std::vector<std::string> names = {"akt:<k>"};
  for (const Builtin& builtin : kBuiltins) names.push_back(builtin.name);
  return names;
}

}  // namespace atr
