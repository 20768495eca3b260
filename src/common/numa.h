// NUMA topology probe.
//
// Reads the online node count from sysfs (no libnuma, no syscalls beyond
// reading /sys/devices/system/node/online) so service startup and the
// benchmarks can report the host's memory topology next to their numbers.
// Nothing in the tree places memory by node: every table is zeroed by the
// thread that builds it, and shard tasks run on whichever pool worker is
// free.
#pragma once

namespace gpudpf {

struct NumaTopology {
    // Online NUMA nodes; 1 on single-node hosts and wherever the sysfs
    // probe is unavailable (non-Linux, restricted container).
    int num_nodes = 1;
};

// Probed once at first use from /sys/devices/system/node/online.
const NumaTopology& GetNumaTopology();

}  // namespace gpudpf
