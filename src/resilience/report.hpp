#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/status.hpp"

/// Failure accounting for resilient runs. Every fault the hardened
/// execution path absorbs — injected or organic — lands in a FailureReport
/// so a run that degraded is distinguishable from a clean one even though
/// both return normally.
namespace lassm::resilience {

/// One absorbed task failure.
struct TaskFault {
  std::uint64_t fault_key = 0;   ///< stable unit key (contig id + side)
  std::uint64_t batch = 0;       ///< batch ordinal within the run
  std::uint64_t index = 0;       ///< task index within the batch
  unsigned attempts = 0;         ///< total attempts made (1 = no retry)
  bool quarantined = false;      ///< true when retries were exhausted
  ErrorCode code = ErrorCode::kTaskFailed;
  std::string message;
  bool operator==(const TaskFault&) const = default;
};

/// One device-loss rebalance: `lost_rank` died after `after_batch` batches
/// and its `moved_contigs` remaining contigs were spread over `survivors`.
struct RebalanceEvent {
  std::uint32_t lost_rank = 0;
  std::uint32_t after_batch = 0;
  std::uint64_t moved_contigs = 0;
  std::vector<std::uint32_t> survivors;
  bool operator==(const RebalanceEvent&) const = default;
};

/// Aggregated failure record for a run (or a rank of a multi-device run).
struct FailureReport {
  std::vector<TaskFault> faults;
  std::vector<RebalanceEvent> rebalances;
  std::uint64_t tasks_retried = 0;      ///< retry attempts that were made
  std::uint64_t tasks_quarantined = 0;  ///< tasks given up on
  std::uint64_t walks_aborted = 0;      ///< watchdog-cancelled mer-walks
  std::uint64_t mem_faults = 0;         ///< injected memsim interruptions
  std::uint64_t devices_lost = 0;
  bool serial_fallback = false;         ///< pool failed; ran degraded

  /// True when nothing went wrong (the common case).
  bool clean() const noexcept {
    return faults.empty() && rebalances.empty() && tasks_retried == 0 &&
           tasks_quarantined == 0 && walks_aborted == 0 && mem_faults == 0 &&
           devices_lost == 0 && !serial_fallback;
  }

  /// Fold `other` into this report (multi-rank aggregation).
  void merge(const FailureReport& other);

  /// One-paragraph human summary ("clean" when clean()).
  std::string summary() const;

  bool operator==(const FailureReport&) const = default;
};

}  // namespace lassm::resilience
