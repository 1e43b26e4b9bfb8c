// Fuzz harness for the SBC1 binary dataset reader (data/format.h). SBC1
// files arrive from disk — a cache directory another process (or attacker)
// can write — so Open/ReadShard/ReadAll must reject arbitrary corruption
// with typed errors: truncated headers, hostile section lengths, bit-flipped
// dictionary pages, and fingerprint mismatches, without ever reading past a
// mapped window. The harness round-trips every input through a real file
// because the reader's whole surface is mmap-based.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "data/format.h"

namespace {

// One scratch path per process: libFuzzer is single-process per job, and
// the standalone driver replays sequentially.
std::string ScratchPath() {
  return "/tmp/secreta_fuzz_sbc1." + std::to_string(::getpid());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = ScratchPath();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    std::fclose(f);
    ::unlink(path.c_str());
    return 0;
  }
  std::fclose(f);

  (void)secreta::LooksLikeBinaryDataset(path);
  auto reader = secreta::BinaryDatasetReader::Open(path);
  if (reader.ok()) {
    // Header/schema/dictionaries decoded; now every shard section and both
    // footer fingerprints. Errors are expected on mutated inputs — crashes
    // and sanitizer reports are the bugs.
    (void)reader->VerifyFile();
    for (size_t s = 0; s < reader->num_shards(); ++s) {
      (void)reader->ReadShard(s);
      (void)reader->ReadShardRows(s);
    }
    (void)reader->ReadAll();
  }
  ::unlink(path.c_str());
  return 0;
}
