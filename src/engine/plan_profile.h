#ifndef DEX_ENGINE_PLAN_PROFILE_H_
#define DEX_ENGINE_PLAN_PROFILE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/logical_plan.h"

namespace dex {

/// \brief Per-operator run-time counters for one LogicalPlan node.
///
/// Wall time is inclusive of children (the conventional EXPLAIN ANALYZE
/// reading: "time spent with this operator on top of the stack or below").
struct OpProfile {
  uint64_t rows_out = 0;     // rows emitted by this operator
  uint64_t batches = 0;      // batches emitted
  uint64_t opens = 0;        // Open() calls (union branches open lazily)
  uint64_t open_nanos = 0;   // wall time inside Open(), children included
  uint64_t next_nanos = 0;   // wall time inside Next(), children included
  /// What ran instead of the operator, or beside it (e.g. the grouping
  /// pushed into the union). A node with a note but no opens renders the
  /// note alone; otherwise the note follows the counters.
  std::string note;
};

/// \brief Collects OpProfiles across one query's plan executions and renders
/// them as an EXPLAIN ANALYZE tree.
///
/// A query may execute several plans (stage 1's Q_f, then the rewritten
/// stage 2 — possibly once per batch); each is registered as a labeled root.
/// Profiles are keyed by node identity, so the rewritten stage-2 tree (fresh
/// nodes) never collides with the original plan.
///
/// ProfileFor is mutex-protected so plans built concurrently stay safe; the
/// counter increments themselves happen on the single thread that drives the
/// operator tree.
class PlanProfiler {
 public:
  /// Returns the (lazily created) profile slot for `node`. The pointer stays
  /// valid for the profiler's lifetime.
  OpProfile* ProfileFor(const LogicalPlan* node);

  /// Registers an executed plan root under a display label ("stage 1 (Q_f)",
  /// "stage 2", ...). Keeps the tree alive for rendering.
  void AddRoot(std::string label, PlanPtr plan);

  /// Renders all roots: one indented tree per root, each node annotated with
  /// its actual row/batch counts and wall times.
  std::string Render() const;

  bool empty() const;

 private:
  mutable std::mutex mu_;
  // node -> profile; deque-like stability comes from unordered_map's
  // guarantee that rehashing never moves mapped values.
  std::unordered_map<const LogicalPlan*, OpProfile> profiles_;
  std::vector<std::pair<std::string, PlanPtr>> roots_;
};

}  // namespace dex

#endif  // DEX_ENGINE_PLAN_PROFILE_H_
