/**
 * @file
 * The env-armed document sink, shared by the three obs documents (the
 * trace, the metrics dump and the kernel profile): each is a leaked
 * process singleton that reads one environment variable on first use
 * and, when it names a path, writes its document there at process
 * exit. The arming decision and the write are made here, once.
 */
#pragma once

#include <string>

namespace tilus {
namespace obs {

/**
 * Read @p env_var; when it is set and non-empty, register @p flush to
 * run at process exit and return the path, else return "". Call once
 * per variable, from the singleton's first use: the singleton is
 * leaked, so @p flush (and late emission from static destructors)
 * never races its destruction.
 */
std::string armFromEnv(const char *env_var, void (*flush)());

/**
 * Write @p text to @p path (created or truncated). The stream is
 * flushed before it is checked, so a full device reports failure;
 * on failure a warning names the path and false is returned.
 */
bool writeDocument(const std::string &path, const std::string &text);

} // namespace obs
} // namespace tilus
