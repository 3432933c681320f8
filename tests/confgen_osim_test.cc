// Config-file AR and OS-simulator tests.
#include "src/confgen/config_file.h"
#include "src/osim/os_simulator.h"

#include <gtest/gtest.h>

#include "src/api/batch_check.h"
#include "src/corpus/synthesizer.h"
#include "src/support/strings.h"

namespace spex {
namespace {

TEST(ConfigFileTest, ParseKeyEqualsValue) {
  ConfigFile file = ConfigFile::Parse("# header\ntimeout = 30\n\nport=8080\n",
                                      ConfigDialect::kKeyEqualsValue);
  EXPECT_EQ(file.SettingCount(), 2u);
  EXPECT_EQ(file.Get("timeout").value(), "30");
  EXPECT_EQ(file.Get("port").value(), "8080");
  EXPECT_EQ(file.LineOf("port"), 4u);
  EXPECT_FALSE(file.Get("missing").has_value());
}

TEST(ConfigFileTest, ParseKeyValueDialect) {
  ConfigFile file = ConfigFile::Parse("DocumentRoot /var/www\nListen 80\n",
                                      ConfigDialect::kKeyValue);
  EXPECT_EQ(file.Get("DocumentRoot").value(), "/var/www");
  EXPECT_EQ(file.Get("Listen").value(), "80");
}

TEST(ConfigFileTest, RoundTripPreservesCommentsAndOrder) {
  const char* text = "# top comment\na = 1\n\n; other comment\nb = 2\n";
  ConfigFile file = ConfigFile::Parse(text, ConfigDialect::kKeyEqualsValue);
  std::string serialized = file.Serialize();
  ConfigFile reparsed = ConfigFile::Parse(serialized, ConfigDialect::kKeyEqualsValue);
  EXPECT_EQ(reparsed.Get("a").value(), "1");
  EXPECT_EQ(reparsed.Get("b").value(), "2");
  EXPECT_NE(serialized.find("# top comment"), std::string::npos);
  EXPECT_NE(serialized.find("; other comment"), std::string::npos);
  // Idempotence: parse(serialize(x)) serializes identically.
  EXPECT_EQ(reparsed.Serialize(), serialized);
}

TEST(ConfigFileTest, SetOverwritesOrAppends) {
  ConfigFile file = ConfigFile::Parse("a = 1\n", ConfigDialect::kKeyEqualsValue);
  file.Set("a", "9");
  EXPECT_EQ(file.Get("a").value(), "9");
  EXPECT_EQ(file.SettingCount(), 1u);
  file.Set("new_key", "x");
  EXPECT_EQ(file.SettingCount(), 2u);
  EXPECT_TRUE(file.Remove("a"));
  EXPECT_FALSE(file.Remove("a"));
}

// Reference walkers: SplitString copies the text into owned lines first,
// then each line is handled exactly as ConfigFile::Parse and
// ValidateConfigText must handle it.
std::vector<ConfigEntry> ReferenceParse(std::string_view text, ConfigDialect dialect) {
  std::vector<ConfigEntry> entries;
  uint32_t line_number = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    ConfigEntry entry;
    entry.line = line_number;
    if (line.empty()) {
      entry.kind = ConfigEntry::Kind::kBlank;
      entries.push_back(std::move(entry));
      continue;
    }
    if (line[0] == '#' || line[0] == ';') {
      entry.kind = ConfigEntry::Kind::kComment;
      entry.raw = std::string(line);
      entries.push_back(std::move(entry));
      continue;
    }
    entry.kind = ConfigEntry::Kind::kSetting;
    if (dialect == ConfigDialect::kKeyEqualsValue) {
      size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        entry.key = std::string(TrimWhitespace(line));
      } else {
        entry.key = std::string(TrimWhitespace(line.substr(0, eq)));
        entry.value = std::string(TrimWhitespace(line.substr(eq + 1)));
      }
    } else {
      size_t space = line.find_first_of(" \t");
      if (space == std::string_view::npos) {
        entry.key = std::string(line);
      } else {
        entry.key = std::string(line.substr(0, space));
        entry.value = std::string(TrimWhitespace(line.substr(space + 1)));
      }
    }
    entries.push_back(std::move(entry));
  }
  if (!entries.empty() && entries.back().kind == ConfigEntry::Kind::kBlank) {
    entries.pop_back();
  }
  return entries;
}

Status ReferenceValidate(std::string_view text, ConfigDialect dialect) {
  uint32_t line_number = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line[0] == '#' || line[0] == ';') {
      continue;
    }
    if (dialect != ConfigDialect::kKeyEqualsValue) {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": settings line has no '='");
    }
    if (TrimWhitespace(line.substr(0, eq)).empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": settings line has an empty key");
    }
  }
  return Status::Ok();
}

// Every corpus template plus the shapes a line walker gets wrong.
std::vector<std::string> WalkerInputs() {
  std::vector<std::string> inputs;
  for (const TargetSpec& spec : EvaluatedTargets()) {
    inputs.push_back(SynthesizeTarget(spec).template_config);
  }
  EXPECT_EQ(inputs.size(), 7u);
  for (const char* text : {
           "a = 1\nb = 2",              // No trailing newline.
           "a = 1\n\n\n\n",             // Several trailing blank lines.
           "a = 1\n   ",                // A whitespace-only last line.
           "a = 1\r\nb = 2\r\n\r\n",    // CRLF line endings.
           "# hash\n; semicolon\n  # indented\na = 1 # not a comment\n",
           "\tkey\t=\tvalue\t\nKey\tValue with  spaces\n",  // Tabs.
           "bare_key\nempty_value =\n= no key\nkey only \n",  // Missing parts.
           "k = a = b\nk2  v2 = v3\n",
           "",
           "\n",
           "\n\n",
           "   \t  ",
       }) {
    inputs.push_back(text);
  }
  return inputs;
}

TEST(ConfigFileTest, ParseMatchesLineSplitReference) {
  for (const std::string& text : WalkerInputs()) {
    for (ConfigDialect dialect : {ConfigDialect::kKeyEqualsValue, ConfigDialect::kKeyValue}) {
      std::string label = std::string(ConfigDialectName(dialect)) + " <" + text.substr(0, 40) + ">";
      std::vector<ConfigEntry> want = ReferenceParse(text, dialect);
      const ConfigFile parsed = ConfigFile::Parse(text, dialect);
      const std::vector<ConfigEntry>& got = parsed.entries();
      ASSERT_EQ(got.size(), want.size()) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << label << " #" << i;
        EXPECT_EQ(got[i].key, want[i].key) << label << " #" << i;
        EXPECT_EQ(got[i].value, want[i].value) << label << " #" << i;
        EXPECT_EQ(got[i].raw, want[i].raw) << label << " #" << i;
        EXPECT_EQ(got[i].line, want[i].line) << label << " #" << i;
      }
    }
  }
}

TEST(ConfigFileTest, ValidateConfigTextMatchesLineSplitReference) {
  std::vector<std::string> inputs = WalkerInputs();
  inputs.push_back("a = 1\n\n# c\nno equals here\n");
  inputs.push_back("a = 1\r\n  = 2\r\n");
  for (const std::string& text : inputs) {
    for (ConfigDialect dialect : {ConfigDialect::kKeyEqualsValue, ConfigDialect::kKeyValue}) {
      std::string label = std::string(ConfigDialectName(dialect)) + " <" + text.substr(0, 40) + ">";
      Status want = ReferenceValidate(text, dialect);
      Status got = ValidateConfigText(text, dialect);
      EXPECT_EQ(got.code(), want.code()) << label;
      EXPECT_EQ(got.message(), want.message()) << label;
    }
  }
}

TEST(OsSimTest, FilesystemSemantics) {
  OsSimulator os = OsSimulator::StandardEnvironment();
  EXPECT_TRUE(os.FileExists("/etc/mime.types"));
  EXPECT_FALSE(os.FileExists("/var"));  // Directory, not file.
  EXPECT_TRUE(os.DirectoryExists("/var"));
  EXPECT_FALSE(os.IsReadable("/etc/secret.key"));
  EXPECT_TRUE(os.RemoveFile("/etc/mime.types"));
  EXPECT_FALSE(os.FileExists("/etc/mime.types"));
}

TEST(OsSimTest, PortSemantics) {
  OsSimulator os = OsSimulator::StandardEnvironment();
  EXPECT_TRUE(os.PortAvailable(8080));
  EXPECT_FALSE(os.PortAvailable(22));     // occupied by sshd
  EXPECT_FALSE(os.PortAvailable(70000));  // out of range
  EXPECT_FALSE(os.PortAvailable(0));
  EXPECT_FALSE(os.PortAvailable(-1));
  os.OccupyPort(8080);
  EXPECT_FALSE(os.PortAvailable(8080));
}

TEST(OsSimTest, UsersHostsAndIps) {
  OsSimulator os = OsSimulator::StandardEnvironment();
  EXPECT_TRUE(os.UserExists("www-data"));
  EXPECT_FALSE(os.UserExists("nosuchuser"));
  EXPECT_TRUE(os.ResolvesHost("localhost"));
  EXPECT_TRUE(os.ResolvesHost("10.0.0.1"));  // Literal IPs resolve.
  EXPECT_FALSE(os.ResolvesHost("no-such-host.invalid"));
  EXPECT_TRUE(os.IsValidIpAddress("127.0.0.1"));
  EXPECT_FALSE(os.IsValidIpAddress("999.999.1.1"));
  EXPECT_FALSE(os.IsValidIpAddress("1.2.3"));
  EXPECT_FALSE(os.IsValidIpAddress("a.b.c.d"));
}

TEST(OsSimTest, MemoryBudget) {
  OsSimulator os;
  os.set_memory_budget(1000);
  EXPECT_GT(os.TryAllocate(600), 0);
  EXPECT_EQ(os.TryAllocate(600), 0);  // Over budget.
  EXPECT_EQ(os.TryAllocate(-1), 0);
  EXPECT_EQ(os.TryAllocate(0), 0);
  os.ResetAllocations();
  EXPECT_GT(os.TryAllocate(600), 0);
}

}  // namespace
}  // namespace spex
