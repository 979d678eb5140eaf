// Serial-vs-concurrent differential harness: replay one seeded workload
// through GemmServer::run and the concurrent AsyncServer and compare.
//
// Both virtual-mode runs go through the one event loop
// (GemmServer::simulate), the serial run at one queue shard and no
// executors. So in virtual mode (time_scale == 0, shed_infeasible off) the
// comparison checks that the outcome does not change with the shard count
// or with the executor threads: every response field, every batch record,
// the queue peak and the makespan must match bit for bit, and each
// executed request's C-buffer checksum must equal the checksum of the same
// request run on the same device by the calling thread. In realtime mode
// the outcomes legitimately diverge (that is the point of executor
// parallelism), so the harness checks the accounting invariant and reports
// the completed-count ratio instead of failing on it.
#pragma once

#include <string>
#include <vector>

#include "serve/core/async_server.hpp"

namespace gemmtune::serve {

/// What one differential replay found.
struct DiffReport {
  bool ok = false;
  std::string detail;  ///< first mismatch, empty when ok
  std::int64_t compared_checksums = 0;  ///< GEMM results verified
  std::int64_t serial_completed = 0;
  std::int64_t async_completed = 0;
  double completed_ratio = 1.0;  ///< async / serial completed counts
};

/// Runs `requests` through both cores on the warmed `server` and compares
/// (see header comment). The accounting invariant — generated ==
/// completed + shed_queue_full + shed_infeasible + expired, globally and
/// per class — is checked in every mode. Optionally hands back the raw
/// outcomes for report building.
DiffReport run_differential(GemmServer& server,
                            const std::vector<GemmRequest>& requests,
                            int max_batch, int queue_capacity,
                            const AsyncOptions& aopt,
                            ServeOutcome* serial_out = nullptr,
                            AsyncOutcome* async_out = nullptr);

}  // namespace gemmtune::serve
