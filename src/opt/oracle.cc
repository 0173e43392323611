#include "opt/oracle.h"

#include <cstring>

#include "sim/device.h"
#include "sim/interpreter.h"
#include "support/error.h"
#include "support/rng.h"

namespace tilus {
namespace opt {

namespace {

/** Pointer parameters are int64 (device byte offsets) by convention. */
bool
isPointerParam(const ir::Var &param)
{
    return param.dtype() == tilus::int64();
}

/** Fill the whole device with seeded pseudo-random bytes. */
void
fillDevice(sim::Device &device, int64_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> chunk(1 << 20);
    int64_t written = 0;
    while (written < bytes) {
        const int64_t n =
            std::min<int64_t>(bytes - written,
                              static_cast<int64_t>(chunk.size()));
        for (int64_t i = 0; i < n; i += 8) {
            uint64_t word = rng.next();
            std::memcpy(chunk.data() + i, &word,
                        std::min<int64_t>(8, n - i));
        }
        device.write(static_cast<uint64_t>(written), chunk.data(), n);
        written += n;
    }
}

} // namespace

sim::SimStats
runSeeded(const lir::Kernel &kernel, const OracleConfig &config,
          sim::Device &device, sim::Engine engine,
          obs::ProfileCollector *profile,
          const sim::MicroProgram *micro_program)
{
    // Partition DRAM into equal arenas per pointer parameter; the final
    // share is left unclaimed so the interpreter's workspace allocation
    // lands behind the arenas (the bump pointer is advanced past them).
    int64_t pointers = 0;
    for (const ir::Var &param : kernel.params)
        if (isPointerParam(param))
            ++pointers;
    const int64_t stride =
        config.device_bytes / (pointers + 1) / 256 * 256;
    TILUS_CHECK_MSG(stride > 0, "oracle device too small");

    fillDevice(device, config.device_bytes, config.seed);
    device.allocate(stride * pointers); // reserve the arenas

    ir::Env env;
    int64_t next_arena = 0;
    for (const ir::Var &param : kernel.params) {
        if (isPointerParam(param)) {
            env.bind(param, next_arena);
            next_arena += stride;
            continue;
        }
        int64_t value = 1;
        for (const auto &[name, v] : config.scalars)
            if (name == param.name())
                value = v;
        env.bind(param, value);
    }

    sim::RunOptions options;
    options.mode = sim::MemoryMode::kFunctional;
    options.max_blocks = config.max_blocks;
    options.enable_print = false;
    options.engine = engine;
    options.profile = profile;
    options.micro_program = micro_program;
    return sim::run(kernel, env, &device, options);
}

bool
devicesIdentical(sim::Device &a, sim::Device &b, int64_t bytes,
                 std::string *detail)
{
    std::vector<uint8_t> buf_a(1 << 20), buf_b(1 << 20);
    int64_t offset = 0;
    while (offset < bytes) {
        const int64_t n = std::min<int64_t>(
            bytes - offset, static_cast<int64_t>(buf_a.size()));
        a.read(static_cast<uint64_t>(offset), buf_a.data(), n);
        b.read(static_cast<uint64_t>(offset), buf_b.data(), n);
        if (std::memcmp(buf_a.data(), buf_b.data(),
                        static_cast<size_t>(n)) != 0) {
            if (detail != nullptr) {
                for (int64_t i = 0; i < n; ++i) {
                    if (buf_a[i] != buf_b[i]) {
                        *detail =
                            "device byte " + std::to_string(offset + i) +
                            ": reference=" +
                            std::to_string(int(buf_a[i])) +
                            " candidate=" +
                            std::to_string(int(buf_b[i]));
                        break;
                    }
                }
            }
            return false;
        }
        offset += n;
    }
    return true;
}

NwayReport
diffLegs(const std::vector<OracleLeg> &legs, const OracleConfig &config)
{
    NwayReport report;
    report.stats.resize(legs.size());
    TILUS_CHECK_MSG(!legs.empty(), "diffLegs needs at least one leg");

    // Reference leg: kept alive so every later leg compares against it.
    sim::Device dev_ref(config.device_bytes);
    try {
        report.stats[0] =
            runSeeded(*legs[0].kernel, config, dev_ref, legs[0].engine);
    } catch (const TilusError &e) {
        report.crashed = true;
        report.failing_leg = legs[0].name;
        report.detail = std::string("execution failed: ") + e.what();
        return report;
    }

    // Every other leg runs on its own identically seeded device and is
    // byte-compared against the reference, one at a time (so memory
    // stays at two devices regardless of N).
    for (size_t i = 1; i < legs.size(); ++i) {
        sim::Device dev(config.device_bytes);
        try {
            report.stats[i] =
                runSeeded(*legs[i].kernel, config, dev, legs[i].engine);
        } catch (const TilusError &e) {
            report.crashed = true;
            report.failing_leg = legs[i].name;
            report.detail = std::string("execution failed: ") + e.what();
            return report;
        }
        std::string detail;
        if (!devicesIdentical(dev_ref, dev, config.device_bytes,
                              &detail)) {
            report.failing_leg = legs[i].name;
            report.detail = detail;
            return report;
        }
    }
    report.identical = true;
    return report;
}

namespace {

/** Shared tail of both pairwise flavours: a two-leg diffLegs run. */
OracleReport
diffRuns(const lir::Kernel &reference, sim::Engine ref_engine,
         const lir::Kernel &candidate, sim::Engine cand_engine,
         const OracleConfig &config)
{
    OracleReport report;
    report.listing_ref = lir::printKernel(reference);
    report.listing_opt = lir::printKernel(candidate);

    NwayReport nway = diffLegs({{"reference", &reference, ref_engine},
                                {"candidate", &candidate, cand_engine}},
                               config);
    report.identical = nway.identical;
    report.detail = nway.detail;
    report.stats_ref = nway.stats[0];
    report.stats_opt = nway.stats[1];
    return report;
}

} // namespace

OracleReport
diffKernels(const lir::Kernel &reference, const lir::Kernel &candidate,
            const OracleConfig &config)
{
    return diffRuns(reference, sim::Engine::kMicroOps, candidate,
                    sim::Engine::kMicroOps, config);
}

OracleReport
diffEngines(const lir::Kernel &kernel, const OracleConfig &config)
{
    return diffRuns(kernel, sim::Engine::kTreeWalk, kernel,
                    sim::Engine::kMicroOps, config);
}

OracleReport
diffProgram(const ir::Program &program,
            const compiler::CompileOptions &options,
            const OracleConfig &config)
{
    compiler::CompileOptions ref_options = options;
    ref_options.opt_level = compiler::OptLevel::O0;
    lir::Kernel reference = compiler::compile(program, ref_options);
    lir::Kernel candidate = compiler::compile(program, options);
    return diffKernels(reference, candidate, config);
}

} // namespace opt
} // namespace tilus
