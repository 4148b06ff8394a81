#include "engine/plan_profile.h"

#include <cinttypes>
#include <cstdio>

namespace dex {

namespace {

std::string FormatMillis(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(nanos) / 1e6);
  return buf;
}

void RenderNode(const LogicalPlan* node,
                const std::unordered_map<const LogicalPlan*, OpProfile>& profiles,
                int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(node->LabelString());
  auto it = profiles.find(node);
  if (it == profiles.end()) {
    // Built but never pulled (e.g. a union branch pruned by LIMIT).
    out->append("  (never executed)");
  } else if (it->second.opens == 0 && !it->second.note.empty()) {
    out->append("  (" + it->second.note + ")");
  } else {
    const OpProfile& p = it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  (rows=%" PRIu64 " batches=%" PRIu64 " open=%sms next=%sms)",
                  p.rows_out, p.batches, FormatMillis(p.open_nanos).c_str(),
                  FormatMillis(p.next_nanos).c_str());
    out->append(buf);
    if (!p.note.empty()) out->append("  [" + p.note + "]");
  }
  out->push_back('\n');
  for (const PlanPtr& c : node->children) {
    RenderNode(c.get(), profiles, indent + 1, out);
  }
}

}  // namespace

OpProfile* PlanProfiler::ProfileFor(const LogicalPlan* node) {
  std::lock_guard<std::mutex> lock(mu_);
  return &profiles_[node];
}

void PlanProfiler::AddRoot(std::string label, PlanPtr plan) {
  std::lock_guard<std::mutex> lock(mu_);
  roots_.emplace_back(std::move(label), std::move(plan));
}

std::string PlanProfiler::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [label, plan] : roots_) {
    out += label;
    out += ":\n";
    RenderNode(plan.get(), profiles_, 1, &out);
  }
  return out;
}

bool PlanProfiler::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return roots_.empty();
}

}  // namespace dex
