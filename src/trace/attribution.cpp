#include "trace/attribution.hpp"

namespace lassm::trace {

const std::array<CounterVector::Field, CounterVector::kNumFields>&
CounterVector::fields() noexcept {
  static const std::array<Field, kNumFields> kFields = {{
      {"cycles", &CounterVector::cycles},
      {"instructions", &CounterVector::instructions},
      {"intops", &CounterVector::intops},
      {"issue_slots", &CounterVector::issue_slots},
      {"probes", &CounterVector::probes},
      {"insertions", &CounterVector::insertions},
      {"walk_steps", &CounterVector::walk_steps},
      {"atomics", &CounterVector::atomics},
      {"mer_retries", &CounterVector::mer_retries},
      {"mem_rounds", &CounterVector::mem_rounds},
      {"mem_accesses", &CounterVector::mem_accesses},
      {"lines_touched", &CounterVector::lines_touched},
      {"l1_hits", &CounterVector::l1_hits},
      {"l2_hits", &CounterVector::l2_hits},
      {"l1_evictions", &CounterVector::l1_evictions},
      {"l2_evictions", &CounterVector::l2_evictions},
      {"hbm_lines", &CounterVector::hbm_lines},
      {"hbm_read_bytes", &CounterVector::hbm_read_bytes},
      {"hbm_write_bytes", &CounterVector::hbm_write_bytes},
      {"warps", &CounterVector::warps},
      {"dist_msgs", &CounterVector::dist_msgs},
      {"dist_bytes", &CounterVector::dist_bytes},
  }};
  return kFields;
}

CounterVector self_cost(const std::vector<AttributionNode>& nodes,
                        std::size_t i) noexcept {
  CounterVector self = nodes[i].total;
  CounterVector child_sum;
  for (const std::uint32_t c : nodes[i].children) {
    child_sum.add(nodes[c].total);
  }
  return self.minus(child_sum);
}

double self_host_s(const std::vector<AttributionNode>& nodes,
                   std::size_t i) noexcept {
  double self = nodes[i].host_s;
  for (const std::uint32_t c : nodes[i].children) self -= nodes[c].host_s;
  return self;
}

std::uint32_t AttributionProfile::open(std::string name) {
  AttributionNode node;
  node.name = std::move(name);
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  if (!open_stack_.empty()) {
    const std::uint32_t parent = open_stack_.back();
    node.parent = static_cast<std::int32_t>(parent);
    node.depth = nodes_[parent].depth + 1;
    nodes_[parent].children.push_back(idx);
  }
  nodes_.push_back(std::move(node));
  open_stack_.push_back(idx);
  open_snapshots_.push_back(cumulative_);
  return idx;
}

CounterVector AttributionProfile::close(double host_s) {
  if (open_stack_.empty()) return {};
  const std::uint32_t idx = open_stack_.back();
  nodes_[idx].total = cumulative_.minus(open_snapshots_.back());
  nodes_[idx].host_s = host_s;
  open_stack_.pop_back();
  open_snapshots_.pop_back();
  return nodes_[idx].total;
}

}  // namespace lassm::trace
