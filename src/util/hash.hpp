// Stable content hashing for the artifact cache.
#pragma once

#include <cstdint>
#include <string>

namespace appeal::util {

/// 64-bit FNV-1a hash of a byte string (stable across platforms/runs).
std::uint64_t fnv1a64(const std::string& bytes);

/// splitmix64 finalizer: fast full-avalanche mixing of one 64-bit word
/// (the synthetic cloud scorer).
std::uint64_t mix64(std::uint64_t x);

/// Hex rendering of a 64-bit hash (16 lowercase hex digits).
std::string hash_hex(std::uint64_t hash);

}  // namespace appeal::util
