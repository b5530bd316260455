#pragma once
/// \file document.hpp
/// Document model shared by the container format, the synthetic generator
/// and the parsers.

#include <cstdint>
#include <string>

namespace hetindex {

/// One document inside a collection file. `local_id` is the position within
/// its file (Fig. 3 Step 1 assigns local IDs; indexers add the global
/// offset).
struct Document {
  std::uint32_t local_id = 0;
  std::string url;
  std::string body;
};

/// Bytes the document occupies in its container's raw payload (two u32
/// length prefixes plus url and body): the unit of "source bytes" and of
/// the sampler's budget.
inline std::uint64_t document_raw_bytes(const Document& doc) {
  return doc.url.size() + doc.body.size() + 8;
}

}  // namespace hetindex
