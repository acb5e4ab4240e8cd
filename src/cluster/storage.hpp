// SharedStorage: the cluster-visible checkpoint store.
//
// "The existence of a reliable and distributed storage medium is needed
// for a real fault-tolerant implementation. For the purpose of this
// example an NFS mount point visible across the entire cluster provided
// the required functionality" (paper, Section 2). Here a directory plays
// the NFS mount: writes are atomic (unique temp file + rename), so a
// resurrection daemon on any node either sees a complete checkpoint or
// the previous one, never a torn image. Names may contain '/' — the
// chunk store (src/ckpt) keys its manifests under manifests/.
//
// A crash between the temp write and the rename strands a *.tmp file;
// list() both hides in-flight temp files from readers and sweeps ones
// old enough that no writer can still own them, so crash debris cannot
// accumulate or ever be mistaken for a restorable object.
#pragma once

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mojave::cluster {

class SharedStorage {
 public:
  explicit SharedStorage(std::filesystem::path root);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  [[nodiscard]] std::filesystem::path path_for(const std::string& name) const {
    return root_ / name;
  }

  void write(const std::string& name, std::span<const std::byte> bytes) const;
  [[nodiscard]] std::optional<std::vector<std::byte>> read(
      const std::string& name) const;
  [[nodiscard]] bool exists(const std::string& name) const;
  void remove(const std::string& name) const;

  /// Names (root-relative, '/'-separated, sorted) of every complete
  /// object under `subdir` ("" = whole store). In-flight temp files are
  /// never listed; stale ones (older than the stale-temp age, i.e. left
  /// by a crash between write and rename) are deleted as a side effect.
  [[nodiscard]] std::vector<std::string> list(
      const std::string& subdir = "") const;

  /// Age (seconds) past which a *.tmp file is considered crash debris.
  void set_stale_tmp_age(double seconds) { stale_tmp_age_ = seconds; }

 private:
  std::filesystem::path root_;
  double stale_tmp_age_ = 60.0;
};

}  // namespace mojave::cluster
