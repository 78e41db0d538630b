#include "util/fs.h"

#include <filesystem>
#include <fstream>

namespace microrec::util {

Status EnsureDirectory(const std::string& dir) {
  if (dir.empty()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create directory " + dir + ": " +
                            ec.message());
  }
  return Status::OK();
}

Status EnsureParentDirectory(const std::string& path) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return Status::OK();
  return EnsureDirectory(parent.string());
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  MICROREC_RETURN_IF_ERROR(EnsureParentDirectory(path));
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp_path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Internal("write failed: " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::Internal("cannot rename " + tmp_path + " over " + path +
                            ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace microrec::util
