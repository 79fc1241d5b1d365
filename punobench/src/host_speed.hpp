// Host-speed reference: a fixed computation, independent of the simulator,
// timed around every job so that host times can be scaled to a steady
// machine speed. A shared host's effective speed drifts by tens of percent
// over minutes (turbo frequency, neighbours on sibling hyperthreads); the
// drift slows the reference and the simulator alike, so their ratio holds
// steady where either time alone does not. README.md, "Host times", gives
// the method and its limits.
#pragma once

namespace punobench {

/// The reference's CPU seconds on the nominal host. A job's CPU time t,
/// measured between reference runs that took r on average, is reported as
/// t * kReferenceNominalS / r: its time on a host where the reference takes
/// this long. The value is roughly the reference's time on a 2.0 GHz
/// Sapphire Rapids guest with the host quiet, so there nominal and CPU
/// seconds roughly agree.
inline constexpr double kReferenceNominalS = 0.005;

/// Runs the reference computation once and returns its CPU seconds.
[[nodiscard]] double time_reference();

}  // namespace punobench
