// TempDir: a fresh, uniquely named directory that its owner removes.
//
// mkdtemp never hands out a name that already exists, so whatever the
// directory holds was written by its owner — a stale directory left by
// an earlier process (whose pid may since have been recycled) can never
// be mistaken for this one.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "support/error.hpp"

namespace mojave {

class TempDir {
 public:
  /// Creates `<system temp dir>/<prefix>XXXXXX`.
  explicit TempDir(const std::string& prefix) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / (prefix + "XXXXXX"))
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw Error("cannot create a temporary directory from " + tmpl);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace mojave
