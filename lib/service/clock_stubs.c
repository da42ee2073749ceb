/* Monotonic nanosecond clock for the server's own timings (cycle
 * durations, per-task shard latency).
 *
 * CLOCK_MONOTONIC never steps backwards (wall-clock adjustments do not
 * touch it), and the native entry point returns an untagged int, so a
 * read costs one vDSO call and no OCaml allocation — unlike
 * Unix.gettimeofday, which boxes a float per call. 63-bit nanoseconds
 * overflow after ~146 years of uptime.
 */

#define _POSIX_C_SOURCE 200809L

#include <caml/mlvalues.h>
#include <time.h>

intnat approx_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

CAMLprim value approx_clock_now_ns_byte(value unit)
{
  return Val_long(approx_clock_now_ns(unit));
}
