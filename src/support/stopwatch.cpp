#include "support/stopwatch.hpp"

#include <cstdio>
#include <cstring>

namespace isamore {

size_t
peakRssBytes()
{
    FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return 0;
    }
    char line[256];
    size_t result = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            long kb = 0;
            if (std::sscanf(line + 6, "%ld", &kb) == 1) {
                result = static_cast<size_t>(kb) * 1024;
            }
            break;
        }
    }
    std::fclose(f);
    return result;
}

}  // namespace isamore
