// An ordered batch of mutations, applied through one Store::Write call.
//
// Consecutive Puts are applied through the core's insert_batch bulk-ingest
// fast path (one structure-lock acquisition per run) with each record
// write-ahead logged to its routed unit's WAL shard in apply order; each
// touched shard is then committed once, so an OK Write is durable like the
// same Puts issued one by one, at one fsync per shard instead of one per
// record. Deletes break the run and apply in place, preserving the batch's
// total order.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "metadata/file_metadata.h"

namespace smartstore::db {

class WriteBatch {
 public:
  enum class OpType { kPut, kDelete };

  struct Op {
    OpType type = OpType::kPut;
    metadata::FileMetadata file;  ///< kPut payload
    std::string name;             ///< kDelete payload
  };

  WriteBatch() = default;

  void Put(metadata::FileMetadata file) {
    Op op;
    op.type = OpType::kPut;
    op.file = std::move(file);
    ops_.push_back(std::move(op));
  }

  void Delete(std::string name) {
    Op op;
    op.type = OpType::kDelete;
    op.name = std::move(name);
    ops_.push_back(std::move(op));
  }

  void Clear() { ops_.clear(); }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void reserve(std::size_t n) { ops_.reserve(n); }

  const std::vector<Op>& ops() const { return ops_; }
  std::vector<Op>&& release() && { return std::move(ops_); }

 private:
  std::vector<Op> ops_;
};

}  // namespace smartstore::db
