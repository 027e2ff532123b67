// Test fixtures for the read-only legacy layouts. No writer in the library
// produces them any more, so the tests build the bytes themselves:
//
//   * write_legacy_wal — a pre-sharding <dir>/wal.bin in the v01 or v02
//     layout (header, then one CRC'd commit block per `block` records, no
//     per-record sequence numbers);
//   * save_image — a full snapshot image taken the only way the library
//     still serializes one (begin_checkpoint + save_snapshot_frozen), for
//     hand-built snapshot.bin fixtures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/smartstore.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "util/binary_io.h"
#include "util/crc32.h"

namespace smartstore::persist::fixtures {

inline WalRecord insert_record(const metadata::FileMetadata& f,
                               std::uint64_t seq = 0) {
  WalRecord rec;
  rec.type = WalRecordType::kInsert;
  rec.file = f;
  rec.seq = seq;
  return rec;
}

inline WalRecord remove_record(const std::string& name,
                               std::uint64_t seq = 0) {
  WalRecord rec;
  rec.type = WalRecordType::kRemove;
  rec.name = name;
  rec.seq = seq;
  return rec;
}

inline void write_legacy_wal(const std::string& path, bool v1,
                             std::uint64_t generation,
                             const std::vector<WalRecord>& records,
                             std::size_t block = 4) {
  util::BinaryWriter out;
  out.write_bytes(v1 ? kWalMagicV1 : kWalMagicV2, sizeof(kWalMagicV2));
  out.write_u64(generation);
  for (std::size_t b = 0; b < records.size(); b += block) {
    const std::size_t e = std::min(records.size(), b + block);
    util::BinaryWriter payload;
    for (std::size_t i = b; i < e; ++i)
      encode_wal_record(payload, records[i], /*with_seq=*/false);
    out.write_u32(kWalBlockMagic);
    out.write_u32(static_cast<std::uint32_t>(e - b));
    out.write_u64(payload.size());
    out.write_bytes(payload.buffer().data(), payload.size());
    out.write_u32(util::crc32(payload.buffer().data(), payload.size()));
  }
  util::write_file_atomic(path, out.buffer());
}

inline void save_image(core::SmartStore& store, const std::string& path,
                       const WalFence& fence = {}) {
  store.begin_checkpoint();
  save_snapshot_frozen(store, path, fence);
  store.end_checkpoint();
}

}  // namespace smartstore::persist::fixtures
