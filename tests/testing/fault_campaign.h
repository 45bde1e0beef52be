// Exhaustive fault-injection campaign driver (see docs/FAULT_INJECTION.md).
//
// Sweeps "fail I/O operation #k" over a deterministic workload: for every
// k the workload runs with a one-shot FaultInjector attached to the disk
// and must either succeed with results identical to a clean golden run
// (the fault was absorbed by a cache or retry layer) or fail with a clean
// Unavailable Status. Either way no page may leak, and a retry after the
// transient fault must reproduce the golden result byte for byte. The
// sweep is self-terminating: when a probe completes without firing (k
// exceeded the workload's op count) the stream is exhausted.

#ifndef NDQ_TESTS_TESTING_FAULT_CAMPAIGN_H_
#define NDQ_TESTS_TESTING_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/entry.h"
#include "core/status.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"

namespace ndq {
namespace testing {

struct FaultCampaignOptions {
  /// Which device operations the sweep targets. The default covers the
  /// ops whose failure must never leak a page; free faults legitimately
  /// strand pages (a failed Free IS the leak), so they get their own
  /// sweep with `check_leaks` off.
  uint32_t ops = FaultOpBit(FaultOp::kRead) | FaultOpBit(FaultOp::kWrite) |
                 FaultOpBit(FaultOp::kAllocate);
  bool check_leaks = true;
  /// Safety cap on the sweep (0 = run until the op stream is exhausted).
  uint64_t max_k = 0;
};

struct FaultCampaignReport {
  uint64_t ks_tested = 0;
  uint64_t clean_failures = 0;      ///< fault surfaced as Unavailable
  uint64_t absorbed_successes = 0;  ///< fault fired, workload still ok
};

/// Runs the sweep over every disk in `disks`: one injector counts the
/// operations of all of them, so "op #k" is the k-th operation on any,
/// and no disk may hold more pages after a run than after the golden one.
/// `workload` evaluates the whole reference query mix and returns the
/// concatenated results; it must be deterministic given the disk
/// contents. `after_run` (may be empty) restores inter-run state — e.g.
/// clears an operand cache so cached runs don't count as live data in the
/// leak baseline.
inline void RunFaultCampaign(
    const std::vector<Disk*>& disks,
    const std::function<Result<std::vector<Entry>>()>& workload,
    const std::function<void()>& after_run,
    const FaultCampaignOptions& options = {},
    FaultCampaignReport* report = nullptr) {
  FaultCampaignReport local;
  FaultCampaignReport& rep = report != nullptr ? *report : local;
  rep = FaultCampaignReport();
  auto settle = [&] {
    if (after_run) after_run();
  };
  auto live_pages = [&] {
    std::vector<size_t> live;
    for (Disk* disk : disks) live.push_back(disk->live_pages());
    return live;
  };
  auto attach = [&](FaultInjector* injector) {
    for (Disk* disk : disks) disk->set_fault_injector(injector);
  };

  // Golden run: expected results and the live-page baseline.
  Result<std::vector<Entry>> golden = workload();
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  settle();
  const std::vector<size_t> baseline = live_pages();

  for (uint64_t k = 1;; ++k) {
    SCOPED_TRACE("fault campaign: fail op #" + std::to_string(k));
    ++rep.ks_tested;
    FaultInjector injector({FaultInjector::FailNth(k, options.ops)});
    attach(&injector);
    Result<std::vector<Entry>> got = workload();
    attach(nullptr);
    const uint64_t fired = injector.faults_fired();
    settle();

    if (got.ok()) {
      EXPECT_EQ(*got, *golden)
          << "fault absorbed but the result changed";
      if (fired > 0) ++rep.absorbed_successes;
    } else {
      // The injected Unavailable must reach the caller unmangled, and a
      // failure with no fault fired would mean the harness itself broke.
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
          << got.status().ToString();
      EXPECT_GT(fired, 0u) << got.status().ToString();
      ++rep.clean_failures;
    }
    if (options.check_leaks) {
      ASSERT_EQ(live_pages(), baseline) << "leaked pages";
    }

    if (!got.ok()) {
      // Retry after the transient fault: byte-identical recovery.
      Result<std::vector<Entry>> retry = workload();
      ASSERT_TRUE(retry.ok()) << retry.status().ToString();
      EXPECT_EQ(*retry, *golden) << "retry diverged from golden";
      settle();
      if (options.check_leaks) {
        ASSERT_EQ(live_pages(), baseline) << "retry leaked pages";
      }
    }

    if (fired == 0) break;  // op stream exhausted: sweep is complete
    if (options.max_k != 0 && k >= options.max_k) break;
  }
}

/// The sweep over one disk.
inline void RunFaultCampaign(
    Disk* disk,
    const std::function<Result<std::vector<Entry>>()>& workload,
    const std::function<void()>& after_run,
    const FaultCampaignOptions& options = {},
    FaultCampaignReport* report = nullptr) {
  RunFaultCampaign(std::vector<Disk*>{disk}, workload, after_run, options,
                   report);
}

}  // namespace testing
}  // namespace ndq

#endif  // NDQ_TESTS_TESTING_FAULT_CAMPAIGN_H_
