// The append-only record log under both checkpoint kinds: CheckpointLog
// (sweep and grid points) and ShardCheckpoint (per-shard output rows) are
// record codecs over it. It owns the framing (spec: docs/FORMATS.md
// "Checkpoints"), the header pins, torn-tail recovery and the serialized,
// flushed appends:
//
//   secreta-checkpoint <TAB> v2 <TAB> <kind> <TAB> <pin> ...   header
//   <tag> <TAB> <n> <TAB> <id> [<TAB> <field> ...]              record head
//   <body line>                                                 x n
//   done <SP> <id> <SP> <fnv>                                   commit
//
// `fnv` is a 64-bit FNV-1a over the bytes of the head and body lines. A
// record without its matching commit line (killed mid-append) ends the
// load, and Open cuts it off before appending, so records written after a
// crash are never hidden behind torn bytes.

#ifndef SECRETA_ROBUST_RECORD_LOG_H_
#define SECRETA_ROBUST_RECORD_LOG_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

/// What tells one codec's files and records apart.
struct RecordLogFormat {
  const char* kind;  ///< header kind: "sweep" or "shard"
  const char* tag;   ///< first field of every record head line
};

/// Where a committed record lives, for RecordLog::ReadBody.
struct RecordRef {
  uint64_t offset = 0;  ///< file offset of the record's head line
  size_t body_lines = 0;
  uint64_t commit = 0;  ///< FNV-1a of the head and body lines
};

/// \brief Fingerprint-pinned, append-only, thread-safe record log.
class RecordLog {
 public:
  /// Receives each committed record at Open: the head fields after the tag
  /// and body count (id first), and where the record lives. Returning false
  /// (a committed record the codec cannot decode) fails the Open.
  using OnRecord = std::function<bool(const std::vector<std::string>& fields,
                                      const RecordRef& ref)>;
  /// Writes body line `index` (newline-free) into `*line` for Append.
  using BodyLine = std::function<void(size_t index, std::string* line)>;

  /// Opens (or creates) the log at `path` for inputs with the given pins,
  /// handing every committed record to `on_record`. Fails with
  /// FailedPrecondition, leaving the file as it was, when the file is not a
  /// v2 checkpoint of `format.kind` or was written for different pins.
  static Result<std::unique_ptr<RecordLog>> Open(
      const std::string& path, const RecordLogFormat& format,
      const std::vector<uint64_t>& pins, const OnRecord& on_record);

  /// Appends one record and flushes. `fields` starts with the record's id;
  /// head fields must be tab- and newline-free. `body_line` is called for
  /// indexes 0..body_lines-1 and its lines stream straight to the file.
  /// After a failed append the log refuses further appends; the next Open
  /// cuts the partial record.
  Result<RecordRef> Append(const std::vector<std::string>& fields,
                           size_t body_lines = 0,
                           const BodyLine& body_line = nullptr)
      SECRETA_EXCLUDES(mutex_);

  /// Re-reads a committed record's body from disk, handing each line to
  /// `on_line`, and re-verifies its commit. IOError when `on_line` returns
  /// false or the record changed since it was loaded or written.
  Status ReadBody(const RecordRef& ref,
                  const std::function<bool(const std::string&)>& on_line) const;

  const std::string& path() const { return path_; }

 private:
  RecordLog(std::string path, const RecordLogFormat& format, uint64_t end)
      : path_(std::move(path)), format_(format), end_(end) {}

  const std::string path_;
  const RecordLogFormat format_;

  mutable Mutex mutex_;
  std::ofstream out_ SECRETA_GUARDED_BY(mutex_);
  /// File offset one past the last committed record.
  uint64_t end_ SECRETA_GUARDED_BY(mutex_);
};

// Field encodings shared by the codecs. Doubles are C99 hex-floats (%a),
// the printf/strtod pair that round-trips bit-exactly. Decoders reject
// empty fields and trailing garbage.
std::string EncodeU64Hex(uint64_t value);
bool DecodeU64(const std::string& field, uint64_t* out, int base = 10);
std::string EncodeDouble(double value);
bool DecodeDouble(const std::string& field, double* out);

}  // namespace secreta

#endif  // SECRETA_ROBUST_RECORD_LOG_H_
