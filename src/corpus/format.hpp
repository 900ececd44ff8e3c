/**
 * @file
 * Binary (de)serialization primitives for the persistent corpus.
 *
 * The corpus file is a little-endian byte stream:
 *
 *   magic (8 bytes "ISAMCRP\n") | formatVersion u32 | rulesHash u64 |
 *   opSchemaHash u64 | sectionCount u32 |
 *   { sectionTag u32 | byteLength u64 | payload } * |
 *   checksum u64 (FNV-1a over every preceding byte)
 *
 * Every read is bounds-checked; any mismatch -- bad magic, stale format
 * version, a rules/op-schema hash from a different build, a truncated
 * stream, or a checksum failure -- throws UserError so callers refuse
 * the entire file (exit-code 3, "invalid input") without taking any
 * partial state.  Writers always serialize into memory first and
 * publish via write-to-temporary + atomic rename, so a crashed writer
 * can never leave a half-written corpus behind.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace isamore {
namespace corpus {

/** File magic; the trailing newline catches ASCII-mode corruption. */
inline constexpr char kMagic[8] = {'I', 'S', 'A', 'M', 'C', 'R', 'P', '\n'};

/** Bumped on any incompatible layout change; old files are refused. */
inline constexpr uint32_t kFormatVersion = 7;

/** Section tags (u32, stable; 1, 2, 3 and 5 belonged to retired
 *  sections and are refused as unknown). */
enum class SectionTag : uint32_t {
    Results = 4,  ///< full analysis results keyed by analysis key
};

/** FNV-1a 64-bit over a byte range. */
uint64_t fnv1a(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ull);

/** Append-only little-endian byte sink. */
class ByteWriter {
 public:
    void u8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    /** Doubles travel as raw bit patterns (NaN/-0.0 round-trip exactly,
     *  matching Payload's bit-pattern equality). */
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** Length-prefixed UTF-8 string. */
    void str(const std::string& v);
    void bytes(const std::string& v) { buffer_ += v; }

    const std::string& data() const { return buffer_; }
    std::string take() { return std::move(buffer_); }
    size_t size() const { return buffer_.size(); }

 private:
    std::string buffer_;
};

/** Bounds-checked reader over a byte range; throws UserError on overrun. */
class ByteReader {
 public:
    ByteReader(const char* data, size_t size, const char* what = "corpus")
        : data_(data), size_(size), what_(what)
    {}
    explicit ByteReader(const std::string& data,
                        const char* what = "corpus")
        : ByteReader(data.data(), data.size(), what)
    {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64();
    bool boolean();
    std::string str();

    /** A bounded sub-reader over the next @p size bytes. */
    ByteReader sub(size_t size);

    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    /** Throw unless the reader consumed exactly its range. */
    void expectEnd() const;

    /**
     * Guard for length-prefixed containers: a corrupt count must fail
     * here, not after allocating count elements.  @p perElement is the
     * minimum serialized size of one element.
     */
    void checkCount(uint64_t count, size_t perElement) const;

 private:
    const char* need(size_t n);

    const char* data_;
    size_t size_;
    size_t pos_ = 0;
    const char* what_;
};

/**
 * Read a whole file into @p out.  Returns false (with @p error set to a
 * message naming the path) when the file cannot be opened or read.
 */
bool readFile(const std::string& path, std::string& out,
              std::string& error);

/**
 * Write @p data to @p path atomically: serialize to "<path>.tmp", then
 * rename over the destination.  @throws UserError naming the path on
 * any I/O failure.
 */
void writeFileAtomic(const std::string& path, const std::string& data);

/** Frame @p sections (tag, payload) into a complete corpus file image. */
std::string frameFile(uint64_t rulesHash, uint64_t opSchemaHash,
                      const std::vector<std::pair<SectionTag, std::string>>&
                          sections);

/**
 * Validate a complete corpus file image (magic, version, hashes,
 * checksum) and return its sections.  @throws UserError on any
 * mismatch; the message names @p path.
 */
std::vector<std::pair<SectionTag, std::string>>
unframeFile(const std::string& image, uint64_t rulesHash,
            uint64_t opSchemaHash, const std::string& path);

}  // namespace corpus
}  // namespace isamore
