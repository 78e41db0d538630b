// Small filesystem helpers shared by everything that writes durable
// artifacts (sweep checkpoints, model snapshots, bench reports).
#ifndef MICROREC_UTIL_FS_H_
#define MICROREC_UTIL_FS_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace microrec::util {

/// Creates `dir` (and any missing ancestors). OK when it already exists;
/// Internal with the failing path and OS error otherwise.
Status EnsureDirectory(const std::string& dir);

/// Creates the parent directory of `path` so a subsequent open-for-write
/// cannot fail with ENOENT. A bare filename (no parent) is a no-op.
Status EnsureParentDirectory(const std::string& path);

/// Replaces `path` with `bytes` atomically: creates the parent directory,
/// writes `<path>.tmp`, checks the flush and renames it over `path`, so a
/// crash mid-write leaves the previous file intact. Internal, naming the
/// path, on failure.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace microrec::util

#endif  // MICROREC_UTIL_FS_H_
