#include "src/common/numa.h"

#include <cstdlib>
#include <fstream>
#include <string>

namespace gpudpf {
namespace {

// Counts the nodes in a sysfs range list like "0", "0-1" or "0,2-3".
// Returns 1 on any parse or read failure: the count is only reported.
int CountOnlineNodes() {
    std::ifstream in("/sys/devices/system/node/online");
    if (!in.is_open()) return 1;
    std::string line;
    if (!std::getline(in, line) || line.empty()) return 1;
    int nodes = 0;
    std::size_t pos = 0;
    while (pos < line.size()) {
        char* end = nullptr;
        const long lo = std::strtol(line.c_str() + pos, &end, 10);
        if (end == line.c_str() + pos) return 1;
        pos = static_cast<std::size_t>(end - line.c_str());
        long hi = lo;
        if (pos < line.size() && line[pos] == '-') {
            ++pos;
            hi = std::strtol(line.c_str() + pos, &end, 10);
            if (end == line.c_str() + pos || hi < lo) return 1;
            pos = static_cast<std::size_t>(end - line.c_str());
        }
        nodes += static_cast<int>(hi - lo + 1);
        if (pos < line.size()) {
            if (line[pos] != ',') break;  // trailing newline/junk
            ++pos;
        }
    }
    return nodes > 0 ? nodes : 1;
}

}  // namespace

const NumaTopology& GetNumaTopology() {
    static const NumaTopology topology = [] {
        NumaTopology t;
        t.num_nodes = CountOnlineNodes();
        return t;
    }();
    return topology;
}

}  // namespace gpudpf
