// Relay fingerprints: the 20-byte identity digest used to reference relays
// in circuits, the control protocol (EXTENDCIRCUIT takes fingerprints), and
// the RTT matrix.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

#include "crypto/x25519.h"

namespace ting::dir {

class Fingerprint {
 public:
  static constexpr std::size_t kLen = 20;

  Fingerprint() = default;

  /// Derive from a relay's identity public key (hash, truncated), the way
  /// Tor fingerprints hash the identity key.
  static Fingerprint of_identity(const crypto::X25519Key& identity_public);

  /// Parse 40 hex digits (optionally preceded by '$' as in the control
  /// protocol). Throws CheckError on malformed input.
  static Fingerprint from_hex(const std::string& hex);
  /// Copy kLen raw bytes (the binary stores' layout).
  static Fingerprint from_bytes(const std::uint8_t* raw) {
    Fingerprint f;
    std::memcpy(f.id_.data(), raw, kLen);
    return f;
  }

  std::string hex() const;           ///< 40 lowercase hex digits
  std::string short_name() const;    ///< first 8 digits, for logs

  auto operator<=>(const Fingerprint&) const = default;

  const std::array<std::uint8_t, kLen>& bytes() const { return id_; }

 private:
  std::array<std::uint8_t, kLen> id_{};
};

}  // namespace ting::dir

template <>
struct std::hash<ting::dir::Fingerprint> {
  std::size_t operator()(const ting::dir::Fingerprint& f) const {
    std::size_t h = 0;
    for (auto b : f.bytes()) h = h * 131 + b;
    return h;
  }
};
