#include "oracle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string
stripWallClock(const std::string& report)
{
    std::ostringstream out;
    std::istringstream in(report);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"seconds\":") == std::string::npos) {
            out << line << "\n";
        }
    }
    return out.str();
}

bool
paretoConsistent(const isamore::rii::RiiResult& result)
{
    const auto& front = result.front;
    for (size_t i = 0; i < front.size(); ++i) {
        for (size_t j = 0; j < front.size(); ++j) {
            if (i == j) {
                continue;
            }
            const auto& a = front[i];
            const auto& b = front[j];
            const bool noWorse =
                a.speedup >= b.speedup && a.areaUm2 <= b.areaUm2;
            const bool better =
                a.speedup > b.speedup || a.areaUm2 < b.areaUm2;
            if (noWorse && better) {
                return false;
            }
        }
    }
    return true;
}

Oracle::Oracle(std::string goldenDir) : goldenDir_(std::move(goldenDir)) {}

std::string
Oracle::goldenFor(const std::string& program, const std::string& mode,
                  bool extended)
{
    if (mode != "default" || extended) {
        return "";
    }
    for (const char* name :
         {"matmul", "2dconv", "stencil", "qprod", "fft", "sha"}) {
        if (program == name) {
            return name;
        }
    }
    return "";
}

const std::string&
Oracle::golden(const std::string& name)
{
    auto it = goldens_.find(name);
    if (it != goldens_.end()) {
        return it->second;
    }
    const std::string path = goldenDir_ + "/" + name + ".json";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("perfbench: cannot read golden " + path);
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return goldens_.emplace(name, stripWallClock(bytes.str()))
        .first->second;
}

std::string
Oracle::check(const std::string& key, const std::string& goldenName,
              const std::string& report)
{
    const std::string stripped = stripWallClock(report);
    if (!goldenName.empty()) {
        ++goldenChecks_;
        if (stripped != golden(goldenName)) {
            return key + ": report differs from golden " + goldenName +
                   ".json";
        }
    }
    auto [it, fresh] = firstByKey_.emplace(key, stripped);
    if (!fresh && it->second != stripped) {
        return key + ": report differs from the first report of the key";
    }
    return "";
}

}  // namespace perfbench
