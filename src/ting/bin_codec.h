// Little-endian fixed-width field codec shared by the binary persistence
// formats (RTT matrix, half-circuit cache checkpoint).
//
// Deliberately not ByteWriter/ByteReader from util/bytes.h: those are
// big-endian to match Tor's wire formats, while the on-disk artifacts are
// little-endian (host order on every platform we run) and are compared
// byte-for-byte by the daemon's crash-resume check, so the codec must be
// explicit about layout rather than inherit whatever the wire needs.
#pragma once

#include <cstdint>
#include <string>

#include "dir/fingerprint.h"

namespace ting::meas::binfmt {

inline void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline std::uint64_t get_u64le(const std::string& s, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(s[off + static_cast<std::size_t>(i)]);
  return v;
}

inline std::uint32_t get_u32le(const std::string& s, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(s[off + static_cast<std::size_t>(i)]);
  return v;
}

inline void put_fp(std::string& out, const dir::Fingerprint& fp) {
  const auto& b = fp.bytes();
  out.append(reinterpret_cast<const char*>(b.data()), b.size());
}

inline dir::Fingerprint get_fp(const std::string& s, std::size_t off) {
  static const char* hexdig = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * dir::Fingerprint::kLen);
  for (std::size_t i = 0; i < dir::Fingerprint::kLen; ++i) {
    const auto byte = static_cast<std::uint8_t>(s[off + i]);
    hex.push_back(hexdig[byte >> 4]);
    hex.push_back(hexdig[byte & 0xf]);
  }
  return dir::Fingerprint::from_hex(hex);
}

}  // namespace ting::meas::binfmt
