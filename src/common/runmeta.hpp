// Identity of the producing run, for machine-readable reports.
//
// Every report the project emits (gemmtune-bench-v1 / serve-v1)
// carries a "meta" block naming the commit, commit timestamp, host,
// interpreter backend and thread count of the run that produced it, so
// `gemmtune bench-db ingest` can key records without guessing. The git
// facts come from `git rev-parse` / `git show` on the current directory
// and fall back to "unknown" / 0 outside a repository (or when git is
// absent), so every binary keeps working from a bare tarball.
//
// Environment overrides (checked first, useful for CI and tests):
//   GEMMTUNE_COMMIT       commit id recorded in reports
//   GEMMTUNE_COMMIT_TIME  unix seconds recorded as the commit time
//   GEMMTUNE_HOSTNAME     host name recorded in reports
//
// The commit *time* (not wall clock) is deliberately the only timestamp:
// it is a pure function of the checkout, so reports — and therefore
// bench-db records — stay byte-deterministic across reruns of the same
// commit.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace gemmtune {

/// Commit id of the working tree: GEMMTUNE_COMMIT, else `git rev-parse
/// HEAD`, else "unknown". Cached after the first call.
const std::string& git_commit();

/// Committer timestamp (unix seconds) of that commit: GEMMTUNE_COMMIT_TIME,
/// else `git show -s --format=%ct HEAD`, else 0. Cached.
std::int64_t git_commit_time();

/// Host name: GEMMTUNE_HOSTNAME, else gethostname(), else "unknown".
const std::string& run_host();

/// The uniform "meta" block: {backend, commit, commit_time, host, threads}.
/// `backend` is the resolved interpreter backend name and `threads` the
/// effective worker count; callers pass them in so this layer stays free
/// of kernelir dependencies.
Json run_meta_json(const std::string& backend, int threads);

}  // namespace gemmtune
