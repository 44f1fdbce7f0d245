// A fixed reference workload. It shares no code with the library, so its
// time tracks only the host: how fast this machine runs the kinds of work
// the simulator does (hash-map and ordered-map updates, a binary heap, a
// sort of small records) at that moment. perfbench_sim times it before and
// after every replay, and run.py reads the replay's host times against it.
#pragma once

namespace perfbench {

/// Host seconds of one pass of the reference workload. Every buffer it
/// uses is freed before it returns.
[[nodiscard]] double reference_kernel_seconds();

}  // namespace perfbench
