#include "workloads/registry.hpp"

#include <cctype>

#include "workloads/libraries.hpp"

namespace isamore {
namespace workloads {
namespace {

struct Kernel {
    const char* name;
    Workload (*make)();
};

constexpr Kernel kKernels[] = {
    {"2dconv", makeConv2D},
    {"matmul", makeMatMul},
    {"matchain", makeMatChain},
    {"fft", makeFft},
    {"stencil", makeStencil},
    {"qprod", makeQProd},
    {"qrdecomp", makeQRDecomp},
    {"deriche", makeDeriche},
    {"sha", makeSha},
    {"all", makeAll},
    {"bitlinear", makeBitLinear},
    {"kyber", makeKyberNtt},
};

std::vector<LibraryModuleSpec>
librarySpecs()
{
    std::vector<LibraryModuleSpec> specs = liquidDspSpecs();
    specs.push_back(cimgSpec());
    for (LibraryModuleSpec& spec : pclSpecs()) {
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::string
fullName(const LibraryModuleSpec& spec)
{
    return spec.library + "/" + spec.name;
}

std::string
lowered(std::string text)
{
    for (char& c : text) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return text;
}

}  // namespace

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const Kernel& kernel : kKernels) {
        out.emplace_back(kernel.name);
    }
    for (const LibraryModuleSpec& spec : librarySpecs()) {
        out.push_back(fullName(spec));
    }
    return out;
}

std::optional<Workload>
find(const std::string& name)
{
    for (const Kernel& kernel : kKernels) {
        if (name == kernel.name) {
            return kernel.make();
        }
    }
    for (const LibraryModuleSpec& spec : librarySpecs()) {
        const std::string full = fullName(spec);
        if (name == full || name == lowered(full) || name == spec.name) {
            return makeLibraryModule(spec);
        }
    }
    return std::nullopt;
}

}  // namespace workloads
}  // namespace isamore
