#include "render/png.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace insitu::render::png {

namespace {

// ---- DEFLATE constants (RFC 1951) ----

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kHashBits = 15;
constexpr int kHashSize = 1 << kHashBits;
constexpr int kMaxChain = 64;  // match-search depth (speed/ratio tradeoff)

constexpr std::array<int, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23,  27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<int, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::array<int, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<int, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// LSB-first bit writer (DEFLATE bit order) that appends whole 32-bit
/// words to the output.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>& out) : out_(out) {}

  /// Appends the low `count` bits of `bits`, first bit first (count <= 32).
  void put_bits(std::uint64_t bits, int count) {
    acc_ |= bits << fill_;
    fill_ += count;
    if (fill_ >= 32) {
      const std::byte word[4] = {static_cast<std::byte>(acc_),
                                 static_cast<std::byte>(acc_ >> 8),
                                 static_cast<std::byte>(acc_ >> 16),
                                 static_cast<std::byte>(acc_ >> 24)};
      out_.insert(out_.end(), std::begin(word), std::end(word));
      acc_ >>= 32;
      fill_ -= 32;
    }
  }

  /// Pads the last partial byte with zero bits and writes what is left.
  void flush() {
    for (; fill_ > 0; fill_ -= 8) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ >>= 8;
    }
    fill_ = 0;
  }

 private:
  std::vector<std::byte>& out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Bits ready for BitWriter::put_bits: a bit-reversed Huffman code
/// (Huffman codes are defined MSB-first), possibly followed by extra bits.
struct Code {
  std::uint32_t bits = 0;
  int count = 0;
};

std::uint32_t reverse_bits(std::uint32_t code, int length) {
  std::uint32_t reversed = 0;
  for (int i = 0; i < length; ++i) {
    reversed = (reversed << 1) | ((code >> i) & 1u);
  }
  return reversed;
}

/// Fixed-Huffman codes (RFC 1951 §3.2.6): literal/length symbols, the
/// symbol plus extra bits of every match length, and the 5-bit distance
/// codes.
struct FixedCodes {
  std::array<Code, 288> litlen;
  std::array<Code, kMaxMatch + 1> length;
  std::array<std::uint32_t, 30> dist;
};

const FixedCodes& fixed_codes() {
  static const FixedCodes codes = [] {
    FixedCodes c;
    for (std::uint32_t s = 0; s < 288; ++s) {
      if (s <= 143) {
        c.litlen[s] = {reverse_bits(0x30 + s, 8), 8};
      } else if (s <= 255) {
        c.litlen[s] = {reverse_bits(0x190 + s - 144, 9), 9};
      } else if (s <= 279) {
        c.litlen[s] = {reverse_bits(s - 256, 7), 7};
      } else {
        c.litlen[s] = {reverse_bits(0xC0 + s - 280, 8), 8};
      }
    }
    for (int len = kMinMatch; len <= kMaxMatch; ++len) {
      std::size_t code = 0;
      while (code < 28 && kLengthBase[code + 1] <= len) ++code;
      const Code sym = c.litlen[257 + code];
      const auto extra = static_cast<std::uint32_t>(len - kLengthBase[code]);
      c.length[static_cast<std::size_t>(len)] = {
          sym.bits | (extra << sym.count), sym.count + kLengthExtra[code]};
    }
    for (std::uint32_t d = 0; d < 30; ++d) c.dist[d] = reverse_bits(d, 5);
    return c;
  }();
  return codes;
}

/// Distance code plus its extra bits (RFC 1951 §3.2.5). Codes come in
/// pairs per power of two: for d-1 >= 4 the code is 2*floor(log2(d-1))
/// plus the bit below the leading one.
Code distance_code(const FixedCodes& codes, int distance) {
  const auto x = static_cast<std::uint32_t>(distance - 1);
  if (x < 4) return {codes.dist[x], 5};
  const int k = std::bit_width(x) - 1;
  const std::uint32_t code =
      2 * static_cast<std::uint32_t>(k) + ((x >> (k - 1)) & 1u);
  const std::uint32_t extra = x & ((1u << (k - 1)) - 1u);
  return {codes.dist[code] | (extra << 5), 5 + (k - 1)};
}

inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `limit` bytes;
/// compares 8 bytes at a time.
inline int match_length(const std::uint8_t* a, const std::uint8_t* b,
                        int limit) {
  int len = 0;
  for (; len + 8 <= limit; len += 8) {
    if (const std::uint64_t diff = load_u64(a + len) ^ load_u64(b + len)) {
      return len + (std::endian::native == std::endian::little
                        ? std::countr_zero(diff)
                        : std::countl_zero(diff)) /
                       8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Appends the raw DEFLATE stream of `data` (one fixed-Huffman block) to
/// `out`. Greedy LZ77 over hash chains of 3-byte prefixes, at most
/// kMaxChain candidates deep, longest match wins, nearest on ties.
void deflate_fixed_into(std::span<const std::byte> data,
                        std::vector<std::byte>& out) {
  const FixedCodes& codes = fixed_codes();
  BitWriter bw(out);
  bw.put_bits(1, 1);  // BFINAL
  bw.put_bits(1, 2);  // BTYPE = fixed Huffman

  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::int64_t n = static_cast<std::int64_t>(data.size());

  // head[h]: latest position with hash h. prev: for each position of the
  // last window, the previous position with the same hash. Chains are
  // only followed within the window, so a window-sized ring suffices.
  constexpr std::int64_t kRingMask = kWindowSize - 1;
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(kWindowSize, -1);

  std::int64_t i = 0;
  while (i < n) {
    int best_len = 0;
    std::int64_t best_dist = 0;
    const bool hashable = i + kMinMatch <= n;
    const std::uint32_t h = hashable ? hash3(bytes + i) : 0;
    if (hashable) {
      const int limit =
          static_cast<int>(std::min<std::int64_t>(kMaxMatch, n - i));
      const std::uint8_t* cur = bytes + i;
      std::int64_t cand = head[h];
      for (int chain = 0;
           cand >= 0 && i - cand <= kWindowSize && chain < kMaxChain; ++chain) {
        const std::uint8_t* match = bytes + cand;
        // A candidate differing at best_len cannot be longer than it.
        if (match[best_len] == cur[best_len]) {
          const int len = match_length(match, cur, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = i - cand;
            if (len >= limit) break;
          }
        }
        cand = prev[static_cast<std::size_t>(cand & kRingMask)];
      }
    }

    if (best_len >= kMinMatch) {
      const Code len = codes.length[static_cast<std::size_t>(best_len)];
      const Code dist = distance_code(codes, static_cast<int>(best_dist));
      bw.put_bits(
          len.bits | (static_cast<std::uint64_t>(dist.bits) << len.count),
          len.count + dist.count);
      // Insert hash entries for the matched region.
      const std::int64_t stop = std::min(i + best_len, n - kMinMatch + 1);
      for (std::int64_t j = i; j < stop; ++j) {
        const std::uint32_t hj = hash3(bytes + j);
        prev[static_cast<std::size_t>(j & kRingMask)] = head[hj];
        head[hj] = j;
      }
      i += best_len;
    } else {
      const Code lit = codes.litlen[bytes[i]];
      bw.put_bits(lit.bits, lit.count);
      if (hashable) {
        prev[static_cast<std::size_t>(i & kRingMask)] = head[h];
        head[h] = i;
      }
      ++i;
    }
  }
  const Code eob = codes.litlen[256];  // end of block
  bw.put_bits(eob.bits, eob.count);
  bw.flush();
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  // Slicing-by-8: table[k][b] is the CRC of byte b followed by k zeros.
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t n = 0; n < 256; ++n) {
        t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  const auto le32 = [](const std::uint8_t* q) {
    return static_cast<std::uint32_t>(q[0]) |
           (static_cast<std::uint32_t>(q[1]) << 8) |
           (static_cast<std::uint32_t>(q[2]) << 16) |
           (static_cast<std::uint32_t>(q[3]) << 24);
  };
  std::uint32_t crc = seed;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = le32(p) ^ crc;
    const std::uint32_t hi = le32(p + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t adler32(std::span<const std::byte> data) {
  // zlib's NMAX: the most bytes before b can overflow 32 bits, so the
  // modulo is taken once per block instead of once per byte.
  constexpr std::size_t kNmax = 5552;
  constexpr std::uint32_t kBase = 65521;
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  std::uint32_t a = 1, b = 0;
  while (n > 0) {
    const std::size_t block = std::min(n, kNmax);
    for (std::size_t i = 0; i < block; ++i) {
      a += p[i];
      b += a;
    }
    a %= kBase;
    b %= kBase;
    p += block;
    n -= block;
  }
  return (b << 16) | a;
}

std::vector<std::byte> deflate_fixed(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  out.reserve(data.size() / 2 + 64);
  deflate_fixed_into(data, out);
  return out;
}

std::vector<std::byte> deflate_stored(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  constexpr std::size_t kMaxStored = 65535;
  std::size_t offset = 0;
  do {
    const std::size_t chunk = std::min(kMaxStored, data.size() - offset);
    const bool final_block = offset + chunk == data.size();
    out.push_back(static_cast<std::byte>(final_block ? 1 : 0));  // BTYPE=00
    const auto len = static_cast<std::uint16_t>(chunk);
    const auto nlen = static_cast<std::uint16_t>(~len);
    out.push_back(static_cast<std::byte>(len & 0xFF));
    out.push_back(static_cast<std::byte>(len >> 8));
    out.push_back(static_cast<std::byte>(nlen & 0xFF));
    out.push_back(static_cast<std::byte>(nlen >> 8));
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(offset),
               data.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    offset += chunk;
  } while (offset < data.size());
  return out;
}

std::vector<std::byte> zlib_compress(std::span<const std::byte> data,
                                     bool compress) {
  std::vector<std::byte> out;
  out.push_back(std::byte{0x78});  // CMF: deflate, 32K window
  out.push_back(std::byte{0x01});  // FLG: check bits, no dict
  if (compress) {
    out.reserve(data.size() / 2 + 64);
    deflate_fixed_into(data, out);
  } else {
    const std::vector<std::byte> body = deflate_stored(data);
    out.insert(out.end(), body.begin(), body.end());
  }
  const std::uint32_t adler = adler32(data);
  out.push_back(static_cast<std::byte>((adler >> 24) & 0xFF));
  out.push_back(static_cast<std::byte>((adler >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((adler >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>(adler & 0xFF));
  return out;
}

namespace {

/// LSB-first bit reader for inflate.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  StatusOr<std::uint32_t> bits(int count) {
    while (fill_ < count) {
      if (pos_ >= data_.size()) {
        return Status::OutOfRange("inflate: truncated stream");
      }
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << fill_;
      fill_ += 8;
    }
    const std::uint32_t value =
        static_cast<std::uint32_t>(acc_ & ((1ull << count) - 1));
    acc_ >>= count;
    fill_ -= count;
    return value;
  }

  void align_to_byte() {
    const int drop = fill_ % 8;
    acc_ >>= drop;
    fill_ -= drop;
  }

  StatusOr<std::uint8_t> byte_aligned() {
    if (fill_ >= 8) {
      const auto v = static_cast<std::uint8_t>(acc_ & 0xFF);
      acc_ >>= 8;
      fill_ -= 8;
      return v;
    }
    if (pos_ >= data_.size()) {
      return Status::OutOfRange("inflate: truncated stored block");
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Decode one fixed-Huffman literal/length symbol by reading MSB-first.
StatusOr<int> read_fixed_litlen(BitReader& br) {
  std::uint32_t code = 0;
  int len = 0;
  // Read up to 9 bits; the fixed code is prefix-free across lengths 7-9.
  for (; len < 9;) {
    INSITU_ASSIGN_OR_RETURN(std::uint32_t bit, br.bits(1));
    code = (code << 1) | bit;
    ++len;
    if (len == 7 && code <= 0x17) return 256 + static_cast<int>(code);
    if (len == 8 && code >= 0x30 && code <= 0xBF) {
      return static_cast<int>(code) - 0x30;
    }
    if (len == 8 && code >= 0xC0 && code <= 0xC7) {
      return 280 + static_cast<int>(code) - 0xC0;
    }
    if (len == 9 && code >= 0x190 && code <= 0x1FF) {
      return 144 + static_cast<int>(code) - 0x190;
    }
  }
  return Status::Internal("inflate: bad fixed-Huffman code");
}

}  // namespace

StatusOr<std::vector<std::byte>> inflate(std::span<const std::byte> data) {
  // Hard output cap: defends against corrupt streams expanding unboundedly.
  constexpr std::size_t kMaxOutput = std::size_t{1} << 30;
  BitReader br(data);
  std::vector<std::byte> out;
  while (true) {
    if (out.size() > kMaxOutput) {
      return Status::ResourceExhausted("inflate: output exceeds 1 GiB cap");
    }
    INSITU_ASSIGN_OR_RETURN(std::uint32_t bfinal, br.bits(1));
    INSITU_ASSIGN_OR_RETURN(std::uint32_t btype, br.bits(2));
    if (btype == 0) {  // stored
      br.align_to_byte();
      std::uint32_t len = 0, nlen = 0;
      for (int i = 0; i < 2; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        len |= static_cast<std::uint32_t>(b) << (8 * i);
      }
      for (int i = 0; i < 2; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        nlen |= static_cast<std::uint32_t>(b) << (8 * i);
      }
      if ((len ^ 0xFFFFu) != nlen) {
        return Status::Internal("inflate: stored block LEN/NLEN mismatch");
      }
      for (std::uint32_t i = 0; i < len; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        out.push_back(static_cast<std::byte>(b));
      }
    } else if (btype == 1) {  // fixed Huffman
      while (true) {
        INSITU_ASSIGN_OR_RETURN(int symbol, read_fixed_litlen(br));
        if (symbol == 256) break;
        if (symbol < 256) {
          out.push_back(static_cast<std::byte>(symbol));
          continue;
        }
        const int lcode = symbol - 257;
        if (lcode >= static_cast<int>(kLengthBase.size())) {
          return Status::Internal("inflate: bad length code");
        }
        INSITU_ASSIGN_OR_RETURN(
            std::uint32_t lextra,
            br.bits(kLengthExtra[static_cast<std::size_t>(lcode)]));
        const int length =
            kLengthBase[static_cast<std::size_t>(lcode)] +
            static_cast<int>(lextra);
        // 5-bit fixed distance code, MSB-first.
        std::uint32_t dcode_bits = 0;
        for (int i = 0; i < 5; ++i) {
          INSITU_ASSIGN_OR_RETURN(std::uint32_t bit, br.bits(1));
          dcode_bits = (dcode_bits << 1) | bit;
        }
        if (dcode_bits >= kDistBase.size()) {
          return Status::Internal("inflate: bad distance code");
        }
        INSITU_ASSIGN_OR_RETURN(
            std::uint32_t dextra,
            br.bits(kDistExtra[static_cast<std::size_t>(dcode_bits)]));
        const int distance =
            kDistBase[static_cast<std::size_t>(dcode_bits)] +
            static_cast<int>(dextra);
        if (distance > static_cast<int>(out.size())) {
          return Status::Internal("inflate: distance beyond output");
        }
        for (int i = 0; i < length; ++i) {
          out.push_back(out[out.size() - static_cast<std::size_t>(distance)]);
        }
      }
    } else {
      return Status::Unimplemented(
          "inflate: only stored and fixed-Huffman blocks supported");
    }
    if (bfinal != 0) break;
  }
  return out;
}

StatusOr<std::vector<std::byte>> zlib_decompress(
    std::span<const std::byte> data) {
  if (data.size() < 6) {
    return Status::InvalidArgument("zlib stream too short");
  }
  INSITU_ASSIGN_OR_RETURN(std::vector<std::byte> out,
                          inflate(data.subspan(2, data.size() - 6)));
  std::uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected = (expected << 8) |
               static_cast<std::uint32_t>(data[data.size() - 4 +
                                               static_cast<std::size_t>(i)]);
  }
  if (adler32(out) != expected) {
    return Status::Internal("zlib: adler32 mismatch");
  }
  return out;
}

namespace {

void append_u32_be(std::vector<std::byte>& out, std::uint32_t value) {
  out.push_back(static_cast<std::byte>((value >> 24) & 0xFF));
  out.push_back(static_cast<std::byte>((value >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((value >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>(value & 0xFF));
}

void append_chunk(std::vector<std::byte>& out, const char type[4],
                  std::span<const std::byte> payload) {
  append_u32_be(out, static_cast<std::uint32_t>(payload.size()));
  const std::span<const std::byte> tag(reinterpret_cast<const std::byte*>(type),
                                       4);
  out.insert(out.end(), tag.begin(), tag.end());
  out.insert(out.end(), payload.begin(), payload.end());
  // The chunk CRC covers type + payload; chain it through the seed.
  append_u32_be(out, crc32(payload, crc32(tag) ^ 0xFFFFFFFFu));
}

/// |residual| of a filtered byte read as a signed value (libpng's
/// minimum-sum-of-absolute-differences heuristic).
inline int abs_residual(std::uint8_t v) {
  return std::abs(static_cast<int>(static_cast<std::int8_t>(v)));
}

/// Writes the filter byte and the filtered bytes of one RGBA scanline to
/// `dst`. With `choose`, picks None/Sub/Up by the smallest residual sum,
/// preferring the earlier filter on ties; otherwise writes None.
void filter_row(const std::uint8_t* row, const std::uint8_t* above,
                std::size_t row_bytes, bool choose, std::uint8_t* dst) {
  enum : std::uint8_t { kNone = 0, kSub = 1, kUp = 2 };
  std::uint8_t filter = kNone;
  if (choose) {
    long none = 0;
    const std::size_t lead = std::min<std::size_t>(4, row_bytes);
    for (std::size_t i = 0; i < lead; ++i) none += abs_residual(row[i]);
    long sub = none;  // Sub subtracts 0 left of the first pixel.
    for (std::size_t i = lead; i < row_bytes; ++i) {
      none += abs_residual(row[i]);
      sub += abs_residual(static_cast<std::uint8_t>(row[i] - row[i - 4]));
    }
    long best = none;
    if (sub < best) {
      best = sub;
      filter = kSub;
    }
    if (above != nullptr) {
      long up = 0;
      for (std::size_t i = 0; i < row_bytes; ++i) {
        up += abs_residual(static_cast<std::uint8_t>(row[i] - above[i]));
      }
      if (up < best) filter = kUp;
    }
  }
  dst[0] = filter;
  std::uint8_t* out = dst + 1;
  switch (filter) {
    case kSub:
      std::memcpy(out, row, std::min<std::size_t>(4, row_bytes));
      for (std::size_t i = 4; i < row_bytes; ++i) {
        out[i] = static_cast<std::uint8_t>(row[i] - row[i - 4]);
      }
      break;
    case kUp:
      for (std::size_t i = 0; i < row_bytes; ++i) {
        out[i] = static_cast<std::uint8_t>(row[i] - above[i]);
      }
      break;
    default:
      std::memcpy(out, row, row_bytes);
  }
}

}  // namespace

std::vector<std::byte> encode(const Image& img, const PngOptions& options) {
  const std::byte signature[] = {
      std::byte{0x89}, std::byte{'P'}, std::byte{'N'}, std::byte{'G'},
      std::byte{0x0D}, std::byte{0x0A}, std::byte{0x1A}, std::byte{0x0A}};
  std::vector<std::byte> out(std::begin(signature), std::end(signature));

  std::vector<std::byte> ihdr;
  append_u32_be(ihdr, static_cast<std::uint32_t>(img.width()));
  append_u32_be(ihdr, static_cast<std::uint32_t>(img.height()));
  ihdr.push_back(std::byte{8});   // bit depth
  ihdr.push_back(std::byte{6});   // color type RGBA
  ihdr.push_back(std::byte{0});   // compression
  ihdr.push_back(std::byte{0});   // filter
  ihdr.push_back(std::byte{0});   // interlace
  append_chunk(out, "IHDR", ihdr);

  // Scanlines, each led by its filter byte.
  const std::size_t row_bytes = static_cast<std::size_t>(img.width()) * 4;
  const std::size_t raw_size =
      static_cast<std::size_t>(img.height()) * (1 + row_bytes);
  const auto raw = std::make_unique_for_overwrite<std::uint8_t[]>(raw_size);
  const auto* pixels =
      reinterpret_cast<const std::uint8_t*>(img.pixels().data());
  for (int y = 0; y < img.height(); ++y) {
    const std::uint8_t* row = pixels + static_cast<std::size_t>(y) * row_bytes;
    filter_row(row, y > 0 ? row - row_bytes : nullptr, row_bytes,
               options.filter,
               raw.get() + static_cast<std::size_t>(y) * (1 + row_bytes));
  }
  append_chunk(out, "IDAT",
               zlib_compress(std::as_bytes(std::span(raw.get(), raw_size)),
                             options.compress));
  append_chunk(out, "IEND", {});
  return out;
}

StatusOr<Image> decode(std::span<const std::byte> data) {
  if (data.size() < 8 || data[1] != std::byte{'P'}) {
    return Status::InvalidArgument("png: bad signature");
  }
  std::size_t pos = 8;
  int width = 0, height = 0;
  std::vector<std::byte> idat;
  while (pos + 12 <= data.size()) {
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length = (length << 8) |
               static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)]);
    }
    const std::string type(reinterpret_cast<const char*>(data.data()) + pos + 4,
                           4);
    if (pos + 12 + length > data.size()) {
      return Status::OutOfRange("png: truncated chunk");
    }
    const auto payload = data.subspan(pos + 8, length);
    if (type == "IHDR") {
      if (length < 13) return Status::InvalidArgument("png: short IHDR");
      for (int i = 0; i < 4; ++i) {
        width = (width << 8) | static_cast<int>(payload[static_cast<std::size_t>(i)]);
        height = (height << 8) |
                 static_cast<int>(payload[static_cast<std::size_t>(4 + i)]);
      }
      if (payload[8] != std::byte{8} || payload[9] != std::byte{6}) {
        return Status::Unimplemented("png: only 8-bit RGBA supported");
      }
    } else if (type == "IDAT") {
      idat.insert(idat.end(), payload.begin(), payload.end());
    } else if (type == "IEND") {
      break;
    }
    pos += 12 + length;
  }
  if (width <= 0 || height <= 0 || idat.empty()) {
    return Status::InvalidArgument("png: missing IHDR/IDAT");
  }
  // Sanity-bound dimensions before allocating (corrupt IHDR defense).
  if (width > (1 << 16) || height > (1 << 16) ||
      static_cast<std::int64_t>(width) * height > (1 << 26)) {
    return Status::InvalidArgument("png: implausible dimensions");
  }
  INSITU_ASSIGN_OR_RETURN(std::vector<std::byte> raw, zlib_decompress(idat));

  const std::size_t row_bytes = static_cast<std::size_t>(width) * 4;
  if (raw.size() != static_cast<std::size_t>(height) * (1 + row_bytes)) {
    return Status::InvalidArgument("png: scanline size mismatch");
  }
  Image img(width, height);
  std::vector<std::uint8_t> prev(row_bytes, 0);
  std::vector<std::uint8_t> current(row_bytes);
  for (int y = 0; y < height; ++y) {
    const std::size_t base = static_cast<std::size_t>(y) * (1 + row_bytes);
    const auto filter = static_cast<std::uint8_t>(raw[base]);
    const auto* src = reinterpret_cast<const std::uint8_t*>(raw.data()) +
                      base + 1;
    for (std::size_t i = 0; i < row_bytes; ++i) {
      std::uint8_t value = src[i];
      if (filter == 1) {
        value = static_cast<std::uint8_t>(value +
                                          (i >= 4 ? current[i - 4] : 0));
      } else if (filter == 2) {
        value = static_cast<std::uint8_t>(value + prev[i]);
      } else if (filter != 0) {
        return Status::Unimplemented("png: unsupported filter " +
                                     std::to_string(filter));
      }
      current[i] = value;
    }
    std::memcpy(img.pixels().data() + static_cast<std::size_t>(y) * width,
                current.data(), row_bytes);
    prev = current;
  }
  return img;
}

Status write_file(const std::string& path, const Image& img,
                  const PngOptions& options) {
  std::vector<std::byte> data;
  {
    obs::TraceScope span(obs::Category::kBackend, "png.encode");
    data = encode(img, options);
  }
  obs::TraceScope span(obs::Category::kIo, "png.write");
  span.arg("bytes", static_cast<double>(data.size()));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  // A write error can surface only when fclose flushes the stdio buffer.
  const bool closed = std::fclose(f) == 0;
  if (written != data.size() || !closed) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace insitu::render::png
