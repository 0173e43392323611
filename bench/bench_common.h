/**
 * @file
 * Shared helpers for the benchmark harness: every bench binary
 * regenerates one figure of the paper's evaluation on the simulated GPU
 * and prints the same rows/series the paper reports, alongside the
 * paper's published numbers where applicable (shape comparison, not
 * absolute-value matching — see EXPERIMENTS.md).
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "obs/sink.h"
#include "runtime/runtime.h"

namespace tilus {
namespace bench {

inline void
printHeader(const std::string &title)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

/** "3.82x" or right-aligned placeholder. */
inline std::string
fmtSpeedup(double speedup)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    return buf;
}

inline std::string
fmtMs(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", us / 1000.0);
    return buf;
}

/**
 * A bench's JSON report: written to argv[1] ("wrote <path>") when a
 * path is given, else printed to stdout. False when the write failed.
 */
inline bool
emitReport(int argc, char **argv, const std::string &json)
{
    if (argc <= 1) {
        std::printf("\n%s", json.c_str());
        return true;
    }
    if (!obs::writeDocument(argv[1], json))
        return false;
    std::printf("\nwrote %s\n", argv[1]);
    return true;
}

/** The six weight types of Figure 10 in the paper's order. */
inline std::vector<DataType>
figure10Types()
{
    return {uint8(), float6e3m2(), uint4(), int4(), uint2(), uint1()};
}

/** The five comparison systems of Figure 10 (cuBLAS is the baseline). */
inline std::vector<baselines::System>
figure10Systems()
{
    return {baselines::System::kTriton, baselines::System::kQuantLlm,
            baselines::System::kLadder, baselines::System::kMarlin,
            baselines::System::kTilus};
}

} // namespace bench
} // namespace tilus
