/**
 * @file
 * Edge-case tests for the benches' Args CLI parser
 * (bench/bench_util.hh).  The parser exits the process on misuse
 * (that is its contract — a bench should die loudly on a typoed
 * sweep), so the failure paths are pinned with gtest death tests;
 * until now they were only exercised implicitly by CI smoke runs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace hermes::bench {
namespace {

/** Build an Args over a token list (argv[0] supplied). */
class ArgvFixture
{
  public:
    explicit ArgvFixture(std::vector<std::string> tokens)
        : tokens_(std::move(tokens))
    {
        pointers_.push_back(const_cast<char *>("bench_test"));
        for (std::string &token : tokens_)
            pointers_.push_back(token.data());
    }

    Args
    args()
    {
        return Args(static_cast<int>(pointers_.size()),
                    pointers_.data());
    }

  private:
    std::vector<std::string> tokens_;
    std::vector<char *> pointers_;
};

TEST(BenchArgs, FlagsAndOptionsParse)
{
    ArgvFixture fixture({"--smoke", "--policy", "jsq",
                         "--requests", "48", "--rate", "2.5"});
    Args args = fixture.args();
    EXPECT_TRUE(args.flag("smoke", "smoke"));
    EXPECT_FALSE(args.flag("verbose", "verbose"));
    EXPECT_EQ(args.str("policy", "all", "policy"), "jsq");
    EXPECT_EQ(args.str("scenario", "all", "scenario"), "all");
    EXPECT_EQ(args.u32("requests", 10, "requests"), 48u);
    EXPECT_DOUBLE_EQ(args.f64("rate", 1.0, "rate"), 2.5);
    args.finish(); // Everything consumed: must not exit.
}

TEST(BenchArgsDeathTest, UnknownFlagExitsWithUsage)
{
    ArgvFixture fixture({"--smoke", "--bogus"});
    Args args = fixture.args();
    args.flag("smoke", "smoke");
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --bogus");
}

TEST(BenchArgsDeathTest, FlagMissingItsValueExits)
{
    // "--policy" with nothing after it cannot bind a value: the
    // query falls back to the default and finish() rejects the
    // dangling token instead of silently accepting the typo.
    ArgvFixture fixture({"--policy"});
    Args args = fixture.args();
    EXPECT_EQ(args.str("policy", "all", "policy"), "all");
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --policy");
}

TEST(BenchArgsDeathTest, DuplicateFlagExits)
{
    // The first occurrence wins; the duplicate is left unconsumed
    // and finish() treats it as an unknown argument, so a sweep
    // cannot silently drop half of a contradictory command line.
    ArgvFixture fixture(
        {"--policy", "jsq", "--policy", "round-robin"});
    Args args = fixture.args();
    EXPECT_EQ(args.str("policy", "all", "policy"), "jsq");
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --policy");
}

TEST(BenchArgsDeathTest, SmokeFlagTakesNoValue)
{
    // "--smoke 5": the flag itself parses, the stray value is an
    // error — presence flags never consume a trailing token.
    ArgvFixture fixture({"--smoke", "5"});
    Args args = fixture.args();
    EXPECT_TRUE(args.flag("smoke", "smoke"));
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: 5");
}

TEST(BenchArgsDeathTest, DuplicateSmokeFlagExits)
{
    ArgvFixture fixture({"--smoke", "--smoke"});
    Args args = fixture.args();
    EXPECT_TRUE(args.flag("smoke", "smoke"));
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --smoke");
}

TEST(BenchArgsDeathTest, NonNumericU32Exits)
{
    ArgvFixture fixture({"--requests", "many"});
    Args args = fixture.args();
    EXPECT_EXIT(args.u32("requests", 10, "requests"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgsDeathTest, NegativeU32Exits)
{
    // strtoul would silently wrap a negative; the parser rejects
    // anything but digits instead.
    ArgvFixture fixture({"--requests", "-3"});
    Args args = fixture.args();
    EXPECT_EXIT(args.u32("requests", 10, "requests"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgs, U64ParsesTheFullSeedRange)
{
    // --seed takes the workload generator's whole 64-bit range —
    // the u32 parser would reject anything past 4294967295.
    ArgvFixture fixture({"--seed", "18446744073709551615"});
    Args args = fixture.args();
    EXPECT_EQ(args.u64("seed", 1, "seed"), UINT64_MAX);
    args.finish();
}

TEST(BenchArgs, U64FallsBackWhenAbsent)
{
    ArgvFixture fixture({});
    Args args = fixture.args();
    EXPECT_EQ(args.u64("seed", 17, "seed"), 17u);
    args.finish();
}

TEST(BenchArgsDeathTest, U64OverflowExits)
{
    // One past UINT64_MAX: strtoull would clamp with ERANGE; the
    // parser must reject instead of silently saturating the seed.
    ArgvFixture fixture({"--seed", "18446744073709551616"});
    Args args = fixture.args();
    EXPECT_EXIT(args.u64("seed", 1, "seed"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgsDeathTest, NegativeU64Exits)
{
    ArgvFixture fixture({"--seed", "-7"});
    Args args = fixture.args();
    EXPECT_EXIT(args.u64("seed", 1, "seed"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgsDeathTest, NonNumericU64Exits)
{
    ArgvFixture fixture({"--seed", "lucky"});
    Args args = fixture.args();
    EXPECT_EXIT(args.u64("seed", 1, "seed"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgsDeathTest, NonNumericF64Exits)
{
    ArgvFixture fixture({"--rate", "fast"});
    Args args = fixture.args();
    EXPECT_EXIT(args.f64("rate", 1.0, "rate"),
                testing::ExitedWithCode(2), "not a number");
}

TEST(BenchArgsDeathTest, HelpExitsZeroWithUsage)
{
    ArgvFixture fixture({"--help"});
    Args args = fixture.args();
    args.flag("smoke", "run the smoke subset");
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(0),
                "--smoke *run the smoke subset");
}

TEST(BenchArgsDeathTest, HelpWithUnknownArgumentStillFails)
{
    // A typo next to --help must not masquerade as success: the
    // usage prints, but the exit code reports the error.
    ArgvFixture fixture({"--help", "--bogus"});
    Args args = fixture.args();
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --bogus");
}

TEST(BenchArgs, OutFlagBindsAPathAndDefaultsEmpty)
{
    ArgvFixture fixture({"--json", "BENCH_fleet.json"});
    Args args = fixture.args();
    EXPECT_EQ(args.out("json", "summary path"),
              "BENCH_fleet.json");
    EXPECT_EQ(args.out("csv", "table path"), "");
    args.finish();
}

TEST(BenchArgsDeathTest, OutFlagMissingItsPathExits)
{
    ArgvFixture fixture({"--json"});
    Args args = fixture.args();
    EXPECT_EQ(args.out("json", "summary path"), "");
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
                "unknown argument: --json");
}

/**
 * Inverse of jsonEscape: decode the escapes inside a JSON string
 * literal (without its surrounding quotes).  Returns false on a
 * malformed escape; `\uXXXX` is supported for the Basic Latin
 * range only — everything jsonEscape itself can produce.
 */
inline bool
jsonUnescape(const std::string &text, std::string &decoded)
{
    decoded.clear();
    decoded.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            decoded += text[i];
            continue;
        }
        if (++i >= text.size())
            return false;
        switch (text[i]) {
        case '"': decoded += '"'; break;
        case '\\': decoded += '\\'; break;
        case '/': decoded += '/'; break;
        case 'b': decoded += '\b'; break;
        case 'f': decoded += '\f'; break;
        case 'n': decoded += '\n'; break;
        case 'r': decoded += '\r'; break;
        case 't': decoded += '\t'; break;
        case 'u': {
            if (i + 4 >= text.size())
                return false;
            unsigned code = 0;
            for (int d = 0; d < 4; ++d) {
                const char h = text[++i];
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    code |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return false;
            }
            if (code > 0x7f)
                return false;
            decoded += static_cast<char>(code);
            break;
        }
        default:
            return false;
        }
    }
    return true;
}

/**
 * The test-side reader of what JsonObject::dump() writes: a flat
 * JSON object of scalars, insertion order preserved.  The bench
 * tools read these files with a real JSON parser; this one exists
 * so the tests can pin the emitter's escaping and round-trip.
 */
class FlatJson
{
  public:
    /**
     * Parse a flat JSON object of scalars (what dump() emits).
     * Returns false on nesting or malformed input.
     */
    static bool
    parse(const std::string &text, FlatJson &object)
    {
        object.entries_.clear();
        std::size_t i = 0;
        const auto skipSpace = [&] {
            while (i < text.size() &&
                   (text[i] == ' ' || text[i] == '\t' ||
                    text[i] == '\n' || text[i] == '\r'))
                ++i;
        };
        // A JSON string literal starting at text[i] == '"';
        // leaves `i` one past the closing quote.
        const auto readString = [&](std::string &raw) {
            raw.clear();
            if (i >= text.size() || text[i] != '"')
                return false;
            for (++i; i < text.size(); ++i) {
                if (text[i] == '\\') {
                    if (i + 1 >= text.size())
                        return false;
                    raw += text[i];
                    raw += text[++i];
                } else if (text[i] == '"') {
                    ++i;
                    return true;
                } else {
                    raw += text[i];
                }
            }
            return false;
        };
        skipSpace();
        if (i >= text.size() || text[i] != '{')
            return false;
        ++i;
        skipSpace();
        if (i < text.size() && text[i] == '}')
            return tail(text, i + 1);
        while (true) {
            skipSpace();
            Entry entry;
            std::string raw_key;
            if (!readString(raw_key) ||
                !jsonUnescape(raw_key, entry.key))
                return false;
            skipSpace();
            if (i >= text.size() || text[i] != ':')
                return false;
            ++i;
            skipSpace();
            if (i >= text.size())
                return false;
            if (text[i] == '"') {
                std::string raw;
                if (!readString(raw))
                    return false;
                entry.raw = "\"" + raw + "\"";
            } else if (text[i] == '{' || text[i] == '[') {
                return false; // Flat objects only.
            } else {
                while (i < text.size() && text[i] != ',' &&
                       text[i] != '}' && text[i] != ' ' &&
                       text[i] != '\n' && text[i] != '\r' &&
                       text[i] != '\t')
                    entry.raw += text[i++];
                if (entry.raw.empty())
                    return false;
            }
            object.entries_.push_back(entry);
            skipSpace();
            if (i >= text.size())
                return false;
            if (text[i] == ',') {
                ++i;
                continue;
            }
            if (text[i] == '}')
                return tail(text, i + 1);
            return false;
        }
    }

    std::size_t size() const { return entries_.size(); }

    bool
    has(const std::string &key) const
    {
        return findRaw(key) != nullptr;
    }

    /** Decoded string value; empty when absent or not a string. */
    std::string
    str(const std::string &key) const
    {
        const std::string *raw = findRaw(key);
        std::string decoded;
        if (raw == nullptr || raw->size() < 2 ||
            raw->front() != '"' || raw->back() != '"' ||
            !jsonUnescape(raw->substr(1, raw->size() - 2),
                          decoded))
            return std::string();
        return decoded;
    }

    /** Numeric value (integers included); 0.0 when absent. */
    double
    number(const std::string &key) const
    {
        const std::string *raw = findRaw(key);
        if (raw == nullptr || raw->empty() ||
            raw->front() == '"')
            return 0.0;
        return std::strtod(raw->c_str(), nullptr);
    }

    /** Re-render exactly as JsonObject::dump() lays out. */
    std::string
    dump() const
    {
        std::string text = "{\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            text += "  \"" + jsonEscape(entries_[i].key) +
                    "\": " + entries_[i].raw;
            if (i + 1 < entries_.size())
                text += ",";
            text += "\n";
        }
        text += "}\n";
        return text;
    }

  private:
    struct Entry
    {
        std::string key;
        std::string raw; ///< Rendered token, quotes included.
    };

    /** Only whitespace may follow the closing brace. */
    static bool
    tail(const std::string &text, std::size_t i)
    {
        for (; i < text.size(); ++i) {
            if (text[i] != ' ' && text[i] != '\t' &&
                text[i] != '\n' && text[i] != '\r')
                return false;
        }
        return true;
    }

    const std::string *
    findRaw(const std::string &key) const
    {
        for (const Entry &entry : entries_) {
            if (entry.key == key)
                return &entry.raw;
        }
        return nullptr;
    }

    std::vector<Entry> entries_;
};

TEST(BenchJson, EscapeCoversQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    // Control characters below 0x20 without a shorthand escape
    // become \u00XX.
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string("\x1f", 1)), "\\u001f");
}

TEST(BenchJson, UnescapeInvertsEscapeAndRejectsMalformed)
{
    const std::string original =
        "q\"uote\\slash\nnew\ttab\x01ctl";
    std::string decoded;
    ASSERT_TRUE(jsonUnescape(jsonEscape(original), decoded));
    EXPECT_EQ(decoded, original);

    EXPECT_FALSE(jsonUnescape("dangling\\", decoded));
    EXPECT_FALSE(jsonUnescape("\\q", decoded));
    EXPECT_FALSE(jsonUnescape("\\u12", decoded));
    EXPECT_FALSE(jsonUnescape("\\uzzzz", decoded));
}

TEST(BenchJson, ObjectDumpAndParseRoundTrip)
{
    JsonObject object;
    object.set("bench", "bench_fleet");
    object.set("tier", "scale-smoke");
    object.set("note", "quotes \" and \\ and\nnewlines");
    object.setU64("events", 324001);
    object.setF64("events_per_sec", 287697.25);
    object.setBool("smoke", true);

    FlatJson parsed;
    ASSERT_TRUE(FlatJson::parse(object.dump(), parsed));
    EXPECT_EQ(parsed.size(), 6u);
    EXPECT_EQ(parsed.str("bench"), "bench_fleet");
    EXPECT_EQ(parsed.str("note"),
              "quotes \" and \\ and\nnewlines");
    EXPECT_DOUBLE_EQ(parsed.number("events"), 324001.0);
    EXPECT_DOUBLE_EQ(parsed.number("events_per_sec"), 287697.25);
    EXPECT_TRUE(parsed.has("smoke"));
    EXPECT_FALSE(parsed.has("missing"));
    EXPECT_EQ(parsed.str("missing"), "");
    EXPECT_DOUBLE_EQ(parsed.number("missing"), 0.0);
    // A second dump of the parse is byte-identical: the emitter
    // and parser agree on escaping and ordering.
    EXPECT_EQ(parsed.dump(), object.dump());
}

TEST(BenchJson, F64SurvivesADecimalRoundTrip)
{
    // %.17g must reproduce any double bit-exactly — the committed
    // baseline's events_per_sec is compared against live runs.
    const double value = 29011.123456789012345;
    JsonObject object;
    object.setF64("events_per_sec", value);
    FlatJson parsed;
    ASSERT_TRUE(FlatJson::parse(object.dump(), parsed));
    EXPECT_EQ(parsed.number("events_per_sec"), value);
}

TEST(BenchJson, ParseRejectsNestingAndTrailingGarbage)
{
    FlatJson parsed;
    EXPECT_TRUE(FlatJson::parse("{}", parsed));
    EXPECT_TRUE(FlatJson::parse("  { \"k\": 1 }\n", parsed));
    EXPECT_FALSE(FlatJson::parse("", parsed));
    EXPECT_FALSE(FlatJson::parse("[1, 2]", parsed));
    EXPECT_FALSE(
        FlatJson::parse("{\"k\": {\"nested\": 1}}", parsed));
    EXPECT_FALSE(FlatJson::parse("{\"k\": [1]}", parsed));
    EXPECT_FALSE(FlatJson::parse("{\"k\": 1} extra", parsed));
    EXPECT_FALSE(FlatJson::parse("{\"k\": }", parsed));
    EXPECT_FALSE(FlatJson::parse("{\"k\" 1}", parsed));
    EXPECT_FALSE(FlatJson::parse("{\"k\": 1", parsed));
}

} // namespace
} // namespace hermes::bench
