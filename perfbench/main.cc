/**
 * @file
 * perfbench: the repository benchmark binary. One process runs one
 * workload (or all of them) against the library's public entry points
 * and ends its standard output with one JSON line:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * Untraced runs report the end-to-end metrics; traced runs (--trace 1)
 * report the per-layer metrics. See perfbench/README.md.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/build_info.h"

using namespace perfbench;

namespace {

/** Library switches that would change what a run measures. */
const char *const kRefusedEnv[] = {
    "TILUS_TRACE",   "TILUS_METRICS",    "TILUS_PROFILE",
    "TILUS_FAULTS",  "TILUS_SIM_ENGINE", "TILUS_CACHE",
};

const char *const kWorkloads[] = {"cold_tune", "retune", "kernel_exec",
                                  "serve"};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload cold_tune|retune|kernel_exec|serve|"
                 "all --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--trace-dir DIR\n",
                 argv0);
    return 2;
}

void
runWorkload(const RunConfig &config, Result &result)
{
    const std::string &w = config.workload;
    if (w == "cold_tune")
        runColdTune(config, result);
    else if (w == "retune")
        runRetune(config, result);
    else if (w == "kernel_exec")
        runKernelExec(config, result);
    else
        runServe(config, result);
}

/** Run one workload, print its metrics and JSON line; true if correct. */
bool
runOne(RunConfig config)
{
    config.work_dir += "/" + config.workload;
    std::filesystem::create_directories(config.work_dir);
    Result result;
    try {
        runWorkload(config, result);
    } catch (const std::exception &e) {
        result.attempt(1);
        result.fail(std::string("exception: ") + e.what());
    }
    if (result.attempted() == 0)
        result.attempt(1), result.fail("workload attempted nothing");
    if (!config.trace) {
        result.metric("peak_rss_mb", peakRssMb(), "MiB");
        result.metric("success_rate", result.successRate(), "ratio");
    }
    std::printf("== %s (seed %llu, %s)\n", config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.trace ? "traced" : "untraced");
    result.print();
    return result.failed() == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value, nullptr, 0);
        else if (flag == "--seconds")
            config.seconds = std::atof(value);
        else if (flag == "--trace")
            config.trace = std::atoi(value) != 0;
        else if (flag == "--work-dir")
            config.work_dir = value;
        else if (flag == "--trace-dir")
            config.trace_dir = value;
        else
            return usage(argv[0]);
    }
    bool known = config.workload == "all";
    for (const char *w : kWorkloads)
        known |= config.workload == w;
    if (!known || config.work_dir.empty() || config.trace_dir.empty() ||
        config.seconds <= 0 || argc % 2 == 0)
        return usage(argv[0]);

    for (const char *name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; it "
                         "changes what the library measures\n",
                         name);
            return 2;
        }
    }
    // Hermetic configuration, fixed before the library's process-wide
    // cache stores and compile pool first read the environment.
    config.work_dir += "/run-" + std::to_string(::getpid());
    config.cache_dir = config.work_dir + "/tune_cache";
    std::filesystem::create_directories(config.cache_dir);
    ::setenv("TILUS_CACHE_DIR", config.cache_dir.c_str(), 1);
    ::setenv("TILUS_COMPILE_THREADS", std::to_string(kPoolWidth).c_str(), 1);
    const unsigned nproc = std::thread::hardware_concurrency();

    std::printf("config: {\"build_info\": %s, \"build_type\": \"%s\", "
                "\"pool_width\": %d, \"nproc\": %u, \"seconds\": %g}\n",
                tilus::obs::buildInfoJson().c_str(),
                tilus::obs::buildType(), kPoolWidth, nproc, config.seconds);
    if (nproc < static_cast<unsigned>(kPoolWidth))
        std::printf("warning: pool width %d exceeds nproc %u\n", kPoolWidth,
                    nproc);

    bool ok = true;
    if (config.workload == "all") {
        for (const char *w : kWorkloads) {
            RunConfig one = config;
            one.workload = w;
            ok &= runOne(one);
        }
    } else {
        ok = runOne(config);
    }
    std::filesystem::remove_all(config.work_dir);
    return ok ? 0 : 1;
}
