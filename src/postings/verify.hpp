#pragma once
/// \file verify.hpp
/// Structural verification of an on-disk index directory: a downstream
/// operator's pre-flight check after copying indexes between machines.
/// Validates everything that can be checked without the original corpus.

#include <cstdint>
#include <string>
#include <vector>

namespace hetindex {

struct VerifyReport {
  bool ok = true;
  std::vector<std::string> errors;
  // Inventory gathered along the way.
  std::uint64_t terms = 0;
  std::uint64_t runs = 0;
  std::uint64_t postings = 0;
  std::uint64_t encoded_bytes = 0;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
};

/// Checks, in order:
///  - dictionary file parses, terms sorted and unique, every term's trie
///    index matches its stored collection;
///  - run directory parses; every listed run file exists, opens (blob CRC
///    verified by the reader) and has consistent in-file doc ranges;
///  - every run-file table entry's key exists in the dictionary;
///  - per key, postings are strictly doc-sorted within and across runs and
///    entry min/max match the decoded lists;
///  - every dictionary term has at least one posting somewhere.
/// A missing or damaged dictionary or run directory is the one error (the
/// reader's Error::to_string()) and ends the check.
VerifyReport verify_index(const std::string& dir);

}  // namespace hetindex
