"""The host clocks this benchmark reads.

The repo's ANL001 lint forbids real-time calls in virtual-time code, and
rightly: simulated durations must come from the cost model. This
benchmark is *about* host seconds, so it does read them -- through these
names only, which keeps every such read easy to find.
"""

import time

#: Elapsed host time of this process's view of the machine.
wall = time.perf_counter
#: User + system CPU seconds of the whole process, all threads.
cpu = time.process_time
#: CPU seconds of the calling thread.
thread_cpu = time.thread_time
#: System-wide monotonic clock: comparable between parent and child.
since_boot = time.monotonic
