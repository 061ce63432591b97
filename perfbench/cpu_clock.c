/* Process CPU time (user + system, all threads) in seconds, read from
   CLOCK_PROCESS_CPUTIME_ID with nanosecond resolution. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_cpu_time(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
