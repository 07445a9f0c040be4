#pragma once

/// \file affinity.hpp
/// Best-effort core pinning for the server's loop threads
/// (TuningServer::Options::pin_threads: loop t on core t). Pinning
/// removes the scheduler's freedom to migrate a hot thread mid-burst —
/// cache locality for the sessions a loop owns — at the cost of
/// load-balancing freedom, so it is opt-in. A failed or unsupported pin is reported by
/// return value and otherwise ignored: affinity is a performance hint,
/// never a correctness requirement (trajectories are pinned by the
/// determinism contract, not by cores).

#include <cstddef>

namespace lynceus::util {

/// Pins the calling thread to `cpu % hardware cores`. Returns false
/// when the platform has no affinity API or the syscall failed.
bool pin_current_thread(std::size_t cpu) noexcept;

}  // namespace lynceus::util
