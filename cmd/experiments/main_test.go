package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/specs"
)

// TestMain runs the command itself when the test binary is started again
// with EXPERIMENTS_RUN_MAIN=1, so the tests drive the real main (flag
// parsing, dispatch and stdout) in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	out, stderr, err := runMainErr(args...)
	if err != nil {
		t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return out
}

// runMainErr runs the command with args in a child process and returns
// its stdout, its stderr and how it exited.
func runMainErr(args ...string) ([]byte, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	return out, stderr.String(), err
}

// TestPaperRunsPrint pins the SHA-256 of what each paper subcommand
// prints, and of the figure set the bare command prints: every figure
// and table comes from its file under specs/, reduced by
// internal/experiments, so a change to either that moves a printed
// number fails here.
func TestPaperRunsPrint(t *testing.T) {
	for _, tc := range []struct{ sub, sha string }{
		{"", "7cb6831aa4a7ae3857b26ad6f9541e9e3192b23fc3752634b3a90a9df9884a27"},
		{"fig1", "28b2ae966a673d8f1f4b972519dc351204bb5392d2d1923fb4cf5e4943a83181"},
		{"fig3", "259e8e0de20543272b8bbcb2e9451e2b28e012c63936b5096e425920738f999c"},
		{"fig4", "a5add103ed6724ee4b95eef77b8413af79e4993d4e5249a06fd9614a097bbf3d"},
		{"fig5", "3f5c75e4fa2fa876523a699f83271702b0890f08415db234dc4f650e3ea3d0e6"},
		{"table3", "0e25a4dd35b9f2336ecb78ad98c4ea6e6cebb5970bdcac82403a5a4b5f7227f6"},
		{"table3mc", "8501985296ce3ec0c834e8ac0084281ab56a39d150267dca8d5d206fe0651cf6"},
		{"faults", "aa2b9be31ad5df517c345e6e9ee22ac01efd31bb92e41c86c7d3664b5ee6a5d7"},
	} {
		var args []string
		if tc.sub != "" {
			args = []string{tc.sub}
		}
		out := runMain(t, args...)
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("experiments %s printed bytes hashing to %s, want %s:\n%.600s", tc.sub, got, tc.sha, out)
		}
	}
}

// campaignFiles pins, for each file under specs/grids and
// specs/campaigns, the store keys of the cells its run stores and the
// SHA-256 of what the run prints (with the store directory written as
// STORE). The keys are those the Go drivers the files replaced gave the
// same cells (`sweep -ambients 30,33 -nseeds 1 -duration 300` for
// ci-sweep.json, `fleetsweep -compare -sizes 2,3 -spreads 0,6 -duration
// 300 -recirc 0.03` for ci-fleetcoord.json, `faultsweep -targets
// single,fleetcoord -types placement,dropout,segment -severities 0.5
// -stacks full,voting -duration 300` for ci-faults.json, and each
// subcommand's defaults for the others), so a store those drivers filled
// still serves every cell. In ci-sweep.json, e71161d6… is the 30 °C cell
// and 68bbcbf7… the 33 °C one.
var campaignFiles = map[string]struct {
	print string
	keys  []string
}{
	"grids/ci-sweep.json": {
		print: "458a01f53fad8071b709da1162baba354bdbbf094c14b8a5acae4ba5a5717c60",
		keys: []string{
			"68bbcbf7feb6a8f5af1c9f5916e18c9d2c04a1673847e82ee91851ecaa933f25",
			"e71161d6e85bc74a59e32cd5cfd2ef15de4a6f9fc192027664b9b81da70d7880",
		},
	},
	"grids/sweep.json": {
		print: "6af2605586ac07e84b11698c505b0b287f9ebefd7ce80fcdda7e4c56c85065bb",
		keys: []string{
			"312e52a37183b44d796e445d7b4f2b24a336a1f44f7c7dd0f898f7d95de18f0b",
			"78500c029bdc9453d82ac7a0c049f0f2df2be023a56809f1a4fd46dcd71b2423",
			"86f452c21eba652bbb3e4830cd78e8c3e3e3107be012ceab25c111c7308c5793",
			"c9009f3c210490649541609d45da418fb09ee6a53f2043957f8de4c1d3c201db",
		},
	},
	"grids/ci-fleetcoord.json": {
		print: "eb3c9a6c9ec563e983c369240a8a67681b38a60f56121fd6950192d3a51be593",
		keys: []string{
			"537cb09f044e726d126b122440bf47b79aaa5b9967b651fc3616df813ffcdf75",
			"956bd89f37ff62783751919a0a9be5e94fc38ca0ce9ee37083d9f5219016195b",
			"bb78c1f32139355239e912aa7a375b6c5bcc1e46ff702735aba959317f727880",
			"d38379ba91aa1d1aa3634c6d27870ed58f311908460d2f0703699ad9be27b094",
		},
	},
	"grids/fleetsweep.json": {
		print: "c91600da0155478e93d03c4fe065046736b53789cc0d8547c3e676cf9bc6875b",
		keys: []string{
			"1e4140e0c3169a2e3a36877548ddc22cd5bc4cf6cef676fff4971d7b95272db2",
			"34df3a7742353d415c4670f35a6a2d540ab5fc5d2bbcb3037d3e01f19a28fb2f",
			"3686a0914acb4496d2177a6d6ee5adabfcf615fe155c1147fcb743634ce76f10",
			"3cbc20e90dac8d116c74cf621a74833bd358877b3c7bd455f4c5006a665abfe1",
			"579fdc9364d964baa9ec4028cedcc022395de464560a136b650feb75fb36e6fd",
			"62e10db22fb0543ac850a51ccef7a75c40c3b892a6a8258a11f37660ddca5cfb",
			"e7562220705092ae2eb29f8bcc7718f8d4218beb7946aff7cc3d583a17361098",
			"f6ebbaa6b7778162ca7adb8c73e7727886a4e963c2104845f8f76e622dc77cc5",
			"fd67acc08bfd9ea4926e9ad97cd1fcb38e118a625d96a800cab307a73ee1cdbe",
		},
	},
	"campaigns/ci-faults.json": {
		print: "787df2c432495e93c9cb99efe248dd31b333563367cce3f4f220a44cab46c58d",
		keys: []string{
			"04df2c7d3810d5e8843a25a33fe93bc7037675dab5d7fb1441394a4566686a2a",
			"119d009a422506e14487cd6bf4f68d1450c23b9872b7f155e525fed016401948",
			"39e9fcc5976589bd4cd89982d9e86630a7e78a58ea66a260b3c8830208fc6170",
			"40495ae22594b6fcafa4c64bb1d5417aa35e9b63df7c10ed0e3e415db74085d8",
			"4e3b00dbc36217dd633a293c5e04f5cfcc0e66075e304649d71865d1627ecee5",
			"5d9179b7bf37b1982ccb5c73150f5f72efa46ec6c88ccd80b232ce2a5bfa4caf",
			"76fa9e2f7e74665820e9945a1a436565673a40a00b9b2cb293b7f9d7ca18a082",
			"788a9000055eff978973f67a8462e42109000fc1abed0e2f091f69dc75a92816",
			"862b9a2cf2a1acf64196f032cf50ee0db3e3fed9be45b218fd2a3416886e442a",
			"912db5289bd866b11d29457999dbb9b8c3dccf9d1602a4add496a1ccf023a3f9",
			"be39c316e5b781ff43b9a8fd35b303c45825ae9359bc82b1f0998836be4ab953",
			"e04fae246c61138356ceab0b27a517972e67a8b836f06df92defddbd7568a858",
			"e46757efa7d25d1f4e50e67be6018abb5bf294f9482a88b8d51c27fb0d06c1f8",
			"ebb0132c5200fb51f9d7c6058dc064646ec0c066b83747ca6fe0f63e3830abc3",
		},
	},
	"campaigns/faultsweep.json": {
		print: "87ecd526dd79c15ace870f6b37080f84608a99e25b851ca1c7184f03d2960cf3",
		keys: []string{
			"09bd189dd7be7683b52926145e703e5309d2379b8b178ec4aacb1470ef7d370e",
			"0acccec741d640a2a56d113ff75c6f7cd585e44af0a53fe1b39e577e7c679c57",
			"0ece164b68547adea57647c6a06840649f390ccb23d07f770bc3cc2fe3a773eb",
			"198e07772af36d1093bc488d90557608fd020a3e215aae66dcd5daee87ce3619",
			"1fd18f7dffb86115af69a2d7b44466be10c18cc1c015e1eb296318d1a21b5d95",
			"25584e9f73f2c991979b07ea11dc6421e64aee518e995d534695a2bad6fdb88f",
			"270516e949319bcec9b4663d897b83fe7f449a70d52b9e37bb16085ef091d357",
			"2749c29ea71d457b747fa20d7b354219ed4f4fddb13554f864d1009687555845",
			"2a413432863b395f8fb0fecff0f5de89e4da83ee7b39ad5841582c7451910c81",
			"2ed7f490bff597a9e99efe29e18c969f9a9a6e25bdaac8f3a84c58230acbce47",
			"31f622331570e1b31025c1f99f6a9635d8f1fc540f00e9416c74ff4a575fe87c",
			"37095baaa71aa4a47b551fabc31ad1a8588a98cedfca0f74a00e98992226b2a0",
			"3bf4e3a8a02b8d27c07fb19b3a66c9303ba9ce45f25ceee061ec2f594abb77a0",
			"3c515bdbdc5137e4bc650d5df0e665ddd48748083f403f22f479f999d76f2d80",
			"3f61f5a0b4aa40bbde87e2106bb0330d002070a88bfe81e8d2d126a45266ca31",
			"406959b4efe2d9fbf7c04f041810bb587cfc5864e8bc9aaef704ee54f002405e",
			"489a8737201f60f4db4e744fad69fcfefbf40a51e5860e62803ee614bb7b6032",
			"4ad92f34b2ff7d317080197440d6740f36b4e8f5f19402489260cd1c8645e1b9",
			"4b1baf88fc851f0f6f4c518d229c681b621aed6b62d1ceaa696cf7d050220fb0",
			"4f84587245000d8343fda45193325c7ea144e8e80eee31dfb20fc3ca82b49b2e",
			"503f2aa7a0a3af6183b5819b6f64bcb371d64faee075d9c91c5c553078da5a71",
			"522a40bb68d6d69bf71f3d042d157cc913d2e90ae44fb8fd8cdb67f371387eec",
			"5a8df96e0d80fd0fb55d704349508fe98d1862e7b5ab3c35315a0010aa790082",
			"5d97ecc32c99b4a72eebf79ba65baed012dba6aa8cb7472ed2ca0c1baffc1787",
			"624af18fe9254acd93004bb4be9fd4e61b2b061e63c9bec9a34dd0a7935f8faf",
			"6292a52e3bf9b442d1d9bbb0df136ba236042261dfa4c4c9376c5a75195113fd",
			"63f17bd51e71e058bcef0360b3258afffd565863776300b77f507bb37639e51b",
			"679fa196f6f618cc9b3e029f28c8a43a7f6bd6813a934f693eba73739f7f6730",
			"681b1f8222514014522600b2e41de72c8b9515b5d976acc818af7e11ba446658",
			"72ae508b8aeac462f1dd484efb7b3921916a02a9e15173035eedef8dc812723b",
			"769ae7398eb78175384bcccb2406d12de197e67098c0df2c4c845fa87ed60d21",
			"82af5ca1566bb9d99afd83ac83a35714f2ddd2a51f36464a5475667d46a7a680",
			"83f8cb322f49553c6d4506501408a066c21ac1af24fb6be93357f81e39e40c3c",
			"8553313c0dc5befdf2c37aec9f87502cf322ad8a4fc15087700f4ac924fef1b0",
			"8908515cde71c8fcb8d2c637d85091264a2ad6462c6c189af6df88aa1a09c38e",
			"8f9b4ca48578e72e5a291d653567be0a30c9fbf79414ebf9691267f96a058039",
			"950b59d9f7bc1c72570d332e0808dd32c32bb0ea745328e1709c55d0bb92575a",
			"96308567610ad60261884f0b7a4bd8d8e3f5aeb8289778c4748ab3a9ba62f84f",
			"96535f04c75cb83b9a7ef24a892fda58f16b479a2a36456aa26d3c696b74c955",
			"9851f489b583ad87dfd8e1e84a1ff0d02d898e3eafba7ba0dde3618ad8e68250",
			"9d08b7ac0b5881861d72f45a693164d75001796073617ec211dfcf8d43f32c17",
			"a8d72f9df9f38eaa0e6f0b145d8a537a9aabad81e4486a807f8b18cbc4a877cc",
			"ba4d9d9c3c94092e2f9efdd951723b686f793985f9ffcd47deaba088192fa29d",
			"c1766752c86c532cfedb17bc9538f3563770fc164a97e62cae73dd50ce61abad",
			"cadd1f8210bbca7ab025914e2f2cf401cb38196f02613335554715f594ecd68e",
			"d20f6b0c5a792ebeb025aed3b00e8f66982e8e619c34144467fb2913215833a8",
			"d6d8f6b120c058eb5ad57752ff2d9b0b0a8fdc12574daac5a4b3ce4c3ea4f954",
			"d9d1cc5fdc86962b5af438dae415786967ef4d5a9a6a36f9c8c5f89a9fa664fd",
			"e4b884eb7b4aef6f3267d1e86c5dad5d3981650070ed07166f4f9ae5ad364dad",
			"ec756c168e457593cb2319ff9ea2437f166489915fbe1f007d518cc5035d5900",
			"ed8b521ce7355b044aae5c52c211c4b62eaa10dd0b5212e11da35e9d90753222",
			"ee0fb6f356d502d709159474d7ab55a4ac55257ab3c3c2fd88ad594d9cdcda3c",
			"efc724e360b74e5314a6d20771c7aa87da4db31f600d987d7e2919be94d49dde",
			"f64647a07a8856d4b4d63d81c559f6f52bdbaaa23ddef674b2c5af9894e304ae",
		},
	},
}

// TestCampaignFileKeys runs every campaign file into a fresh store and
// checks the keys of the cells it stored and the bytes it printed, and
// pins the key of the 8-seed Monte Carlo table `table3mc` runs by
// default.
func TestCampaignFileKeys(t *testing.T) {
	grids, err := filepath.Glob("../../specs/grids/*.json")
	if err != nil {
		t.Fatal(err)
	}
	campaigns, err := filepath.Glob("../../specs/campaigns/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(grids) + len(campaigns); n != len(campaignFiles) {
		t.Errorf("%d campaign files under specs/, %d in campaignFiles", n, len(campaignFiles))
	}
	for _, file := range append(grids, campaigns...) {
		name := strings.TrimPrefix(file, "../../specs/")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, ok := campaignFiles[name]
			if !ok {
				t.Fatalf("%s is not in campaignFiles", name)
			}
			args := []string{"sweep", "-grid", file}
			if strings.HasPrefix(name, "campaigns/") {
				args = []string{"faultsweep", "-campaign", file}
			}
			dir := t.TempDir()
			out := runMain(t, append(args, "-store", dir)...)
			sum := sha256.Sum256(bytes.ReplaceAll(out, []byte(dir), []byte("STORE")))
			if got := hex.EncodeToString(sum[:]); got != want.print {
				t.Errorf("printed bytes hashing to %s, want %s:\n%s", got, want.print, out)
			}
			cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, cell := range cells {
				keys = append(keys, strings.TrimSuffix(filepath.Base(cell), ".json"))
			}
			if !slices.Equal(keys, want.keys) {
				t.Errorf("stored cells under the keys\n%s\nwant\n%s", strings.Join(keys, "\n"), strings.Join(want.keys, "\n"))
			}
		})
	}

	table3, err := specs.Load("table3.json")
	if err != nil {
		t.Fatal(err)
	}
	const mc = "e68345a36930927cb3607308ef95ffcdaa0df3d887ce2fb316cc1b1cf092af9b"
	if key, err := scenario.Key(experiments.Table3MCSpec(table3, 8)); err != nil || key != mc {
		t.Errorf("8-seed table3mc spec keys to %s (%v), want %s", key, err, mc)
	}
}

// TestCampaignsRefused checks what the campaign subcommands refuse before
// a cell runs: the flags of the drivers the files replaced, as unknown
// flags; `fleetsweep`, as an unknown subcommand; and a grid with an
// invalid cell, with cells of two kinds or of a kind `sweep` has no
// columns for, which leaves its store empty.
func TestCampaignsRefused(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	grid := func(name, base, axes string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"base": `+base+`, "axes": `+axes+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rack := `{"kind": "fleet", "name": "rack", "duration": 60, "fleet": {"size": 2}}`
	badCell := grid("bad.json", rack, `[[{"label": "ok", "patch": {}}, {"label": "passes=3", "patch": {"fleet": {"recirc_passes": 3}}}]]`)
	mixed := grid("mixed.json", rack, `[[{"label": "local", "patch": {}}, {"label": "coord", "patch": {"kind": "fleetcoord"}}]]`)
	single := grid("single.json", `{"kind": "single", "name": "one", "duration": 60,
		"jobs": [{"workload": {"name": "constant"}, "policy": {"name": "full"}}]}`, `[]`)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fleetsweep"}, `unknown subcommand "fleetsweep"`},
		{[]string{"sweep", "-ambients", "30,33"}, "flag provided but not defined: -ambients"},
		{[]string{"faultsweep", "-targets", "single"}, "flag provided but not defined: -targets"},
		{[]string{"sweep"}, "no file given"},
		{[]string{"sweep", "-grid", badCell, "-store", store}, "grid cell passes=3: scenario: fleet recirc_passes 3 outside [0, 2]"},
		{[]string{"sweep", "-grid", mixed, "-store", store}, "cell rack/coord is a fleetcoord spec where the first is a fleet spec"},
		{[]string{"sweep", "-grid", single, "-store", store}, `grid cells of kind "single" have no sweep columns`},
	} {
		out, stderr, err := runMainErr(tc.args...)
		if err == nil || !strings.Contains(stderr, tc.want) {
			t.Errorf("experiments %s: exit %v, stderr %q; want a failure naming %q", strings.Join(tc.args, " "), err, stderr, tc.want)
		}
		if len(out) != 0 {
			t.Errorf("experiments %s printed %q", strings.Join(tc.args, " "), out)
		}
	}
	if cells, _ := filepath.Glob(filepath.Join(store, "*.json")); len(cells) != 0 {
		t.Errorf("refused grids stored %v", cells)
	}
}
