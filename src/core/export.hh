/**
 * @file
 * Machine-readable export of analysis results (JSON and CSV), so the
 * figures can be re-plotted or post-processed outside this repository.
 *
 * The JSON writer is a deliberately small, dependency-free emitter that
 * covers exactly the shapes we serialise (objects, arrays, strings,
 * numbers, booleans); it is not a general-purpose JSON library.
 */

#ifndef GPR_CORE_EXPORT_HH
#define GPR_CORE_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/comparison.hh"
#include "core/shard.hh"

namespace gpr {

/** Minimal streaming JSON writer (objects/arrays must be closed in
 *  LIFO order; keys only inside objects). */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream& os);

    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Emit a key inside an object (must be followed by a value). */
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view v);
    JsonWriter& value(const char* v);
    JsonWriter& value(double v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(bool v);

    /** Emit @p token verbatim as a value.  Callers guarantee it is one
     *  valid, fully serialised JSON value (a shortest-round-trip double
     *  token, a pre-rendered object, ...). */
    JsonWriter& raw(std::string_view token);

    /** key + value in one call. */
    template <typename T>
    JsonWriter&
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    void separator();
    static std::string escape(std::string_view s);

    std::ostream& os_;
    /** Whether a value has been emitted at each nesting level. */
    std::string stack_; ///< 'o' = object, 'a' = array
    bool need_comma_ = false;
    bool after_key_ = false;
};

// ------------------------------------------------------------------------
// JSON reader — the parsing counterpart of JsonWriter, sized for the
// shapes this repository serialises (specs, store lines).  Numbers keep
// their raw token so 64-bit seeds survive exactly.

class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Typed accessors; each throws FatalError on a kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    /** Exact unsigned 64-bit value (fatal on sign/fraction/overflow). */
    std::uint64_t asU64() const;
    const std::string& asString() const;
    /** Array elements, in document order. */
    const std::vector<JsonValue>& items() const;
    /** Object members, in document order. */
    const std::vector<std::pair<std::string, JsonValue>>& members() const;

    /** Object member lookup; nullptr when absent (fatal on non-object). */
    const JsonValue* find(std::string_view key) const;

    // Construction (used by the parser; exposed for tests).
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    /** @p token must be a valid JSON number literal. */
    static JsonValue makeNumber(std::string token);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< string value, or the raw number token
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Parse one JSON document (trailing garbage is an error).  Throws
 *  FatalError with a byte offset on malformed input, including arrays
 *  and objects nested deeper than 64 levels. */
JsonValue parseJson(std::string_view text);

/** Serialise one per-benchmark report as a JSON object. */
void writeReportJson(std::ostream& os, const ReliabilityReport& report);

/** Serialise a whole study (all cells + claim summary) as JSON. */
void writeStudyJson(std::ostream& os, const StudyResult& study);

/** Flat CSV of a study: one row per (benchmark, GPU) cell. */
void writeStudyCsv(std::ostream& os, const StudyResult& study);

// ------------------------------------------------------------------------
// JSONL shard store — the orchestrator's checkpoint format.  One record
// per line, append-only, so a killed study leaves at worst one truncated
// line (which the reader skips).

/**
 * The store's first line: identifies the StudySpec the shards were
 * computed under, so --resume can refuse a mismatched store instead of
 * silently mixing results.  Stores written before this header existed
 * simply start with a shard record; readers treat those as legacy.
 */
struct StoreHeader
{
    std::uint64_t version = 1;
    /** StudySpec::campaignHashHex() of the writing spec. */
    std::string specHash;
    /** Full spec JSON, for forensics (ignored on load). */
    std::string specJson;
};

/** Serialise @p header as a single JSON object on one line (no '\n'). */
void writeStoreHeader(std::ostream& os, const StoreHeader& header);

/** Parse a store line as a header record; false for anything else
 *  (including ordinary shard records and malformed lines). */
bool parseStoreHeader(std::string_view line, StoreHeader& out);

/** Serialise @p record as a single JSON object on one line (no '\n'). */
void writeShardRecord(std::ostream& os, const ShardRecord& record);

/** Parse one store line into @p out; false for malformed/truncated
 *  lines (the caller should skip them, not abort). */
bool parseShardRecord(std::string_view line, ShardRecord& out);

/**
 * Read every well-formed record from a shard-store stream, parsing each
 * line once.  Header lines, recognised at any line, are appended to
 * @p headers when it is set; malformed and truncated lines are skipped.
 */
std::vector<ShardRecord> readShardStore(
    std::istream& is, std::vector<StoreHeader>* headers = nullptr);

} // namespace gpr

#endif // GPR_CORE_EXPORT_HH
