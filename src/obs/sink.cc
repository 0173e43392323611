#include "obs/sink.h"

#include <cstdlib>
#include <fstream>

#include "support/logging.h"

namespace tilus {
namespace obs {

std::string
armFromEnv(const char *env_var, void (*flush)())
{
    const char *path = std::getenv(env_var);
    if (!path || !*path)
        return "";
    std::atexit(flush);
    return path;
}

bool
writeDocument(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
        warn("cannot write " + path);
        return false;
    }
    return true;
}

} // namespace obs
} // namespace tilus
