#include "obs/build_info.h"

#include <sstream>

// The repository build generates this header on every build; the
// perfbench build passes TILUS_GIT_DESCRIBE as a definition instead.
#if __has_include("tilus_git_describe.h")
#include "tilus_git_describe.h"
#endif

#include "cache/fingerprint.h"
#include "cache/tune_db.h"
#include "compiler/options.h"
#include "obs/trace.h"

namespace tilus {
namespace obs {

const char *
gitDescribe()
{
#ifdef TILUS_GIT_DESCRIBE
    return TILUS_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

const char *
compilerVersion()
{
#ifdef __VERSION__
    return "" __VERSION__;
#else
    return "unknown";
#endif
}

const char *
buildType()
{
#ifdef TILUS_BUILD_TYPE
    return TILUS_BUILD_TYPE;
#else
    return "unknown";
#endif
}

std::string
buildInfo()
{
    std::ostringstream oss;
    oss << "tilus " << gitDescribe() << " | " << compilerVersion()
        << " | " << buildType() << " | opt O2 default"
        << " | compiler rev " << compiler::kCompilerRevision
        << " | cache format v" << cache::kCacheFormatVersion
        << " | tune db v" << cache::kTuneDbVersion;
    return oss.str();
}

std::string
buildInfoJson()
{
    std::ostringstream oss;
    oss << "{\"git\":\"" << jsonEscape(gitDescribe())
        << "\",\"compiler\":\"" << jsonEscape(compilerVersion())
        << "\",\"build_type\":\"" << jsonEscape(buildType())
        << "\",\"default_opt_level\":\"O2\""
        << ",\"compiler_revision\":" << compiler::kCompilerRevision
        << ",\"cache_format_version\":" << cache::kCacheFormatVersion
        << ",\"tune_db_version\":" << cache::kTuneDbVersion << "}";
    return oss.str();
}

} // namespace obs
} // namespace tilus
