package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Every export a fully observed run renders is pinned by sha256: the
// partitioned configuration on each engine, plus one single-partition
// run (the recorders' unsharded path). Any change to an exporter, a
// recorder's merge or the observed schedule changes a digest; re-pin
// only for a deliberate format or schedule change.
func TestObservedExportDigests(t *testing.T) {
	single := shardedCfg(CREST, 1, "")
	single.Workers = 1
	for _, c := range []struct {
		name string
		cfg  Config
		want [8]string // chrome, metrics json/csv/prom, why dot/json, flight json/tail
	}{
		{"crest", observedCfg(CREST, 1), [8]string{
			"5db13c0960b0c92c6f804e6688434756119b8cdf0e4e08eaf87614b04f017340",
			"dc19a73990d9745341fcb557a1853cc0c0960f5f31465cdf7bfc05484b344cdc",
			"d5e2633162c0e48792cd2500ced3b2c030cbbf7bbce8e3d3f0bd4790c7a3dc25",
			"1bda39d9bbada718f5bce0017211c6f68056e957aa996aec949262a831a5642c",
			"13220cd2d78be573627872a205d40eb193562a16b8cdd4637d6b88253d744908",
			"a21369e629d8f0f73586c3792b0fb1cbb86567cc2286c009283f2cfb76aa3349",
			"83cc456f581a8b28260c41e013ea74307e0b6fd6fff594e04cccf85ce2da047d",
			"f2506d1e9564c462b796a1bff3ad8ae1c951e026c6c5c69fceadefa641a8e0ef",
		}},
		{"ford", observedCfg(FORD, 1), [8]string{
			"580dec65b7f1f0c7555f0acd61ee7341972ac89c2f3e54fe4799c18668ed2c18",
			"d646341e6aab91817c6fc9392163716d6c76cc8c0f46af6ef3fce2f97cac0e39",
			"f8860b9d1bd938b93931aa51e721b676a2f0d540cdd6c6e5b24afd3bdc9af16b",
			"d4d4512d05cfcc36eae041cba92f9aa2bd4ee267a4e8ff7872b8795bbb2969c7",
			"73b59e4a90103fb55f4df21f84458812b7556f7736b5a012a7e1e4cb28a58f71",
			"44866b6a7076fa6f4c022154e7009f74356c98692936d2ae1ec55ae6dd960cc7",
			"38cb83a3c0c57990f91935a4b9d3c0888d55e8aac8ff96ebdad5592d1a53b1fb",
			"cdd3c5ad7e46d698f4bd12974bd405b58b1a7944ffdd7cdde69662854b6219ad",
		}},
		{"motor", observedCfg(Motor, 1), [8]string{
			"d0c91145804083b7252fd9bf88c20454ea0bd7f858fc70eecd125a5bce60e791",
			"6521877a33ff005282a591a3dc649bfa6e76255a7f5efef8fda01e5f5872e121",
			"167587c0b24bc7b20ad6de5d5ca06cff8ead13856c3291d26826a9b7a454a9ef",
			"6b90be29d0b33c8f355ab1173aa849b5a7803ff08487c257301aff186e759df5",
			"9330a054fc4c3db45a413b08198dfcc723abb830a4700a381dd4d066de4dc620",
			"2367b68aa79e0abbc5073489230b5706707fa8c0a6384a82196cf89be856551d",
			"ace8a48396769b4ab9109d841ad8d60395405f335e01d5074f4ea182b550ddc5",
			"00f66e4677785f7ffbd09906674a153c5093a1cf2d5bce6f6ecbbd43abba11e6",
		}},
		{"crest-shards1", single, [8]string{
			"1b5da80f17f3d73d26d8b312c765dfcfa59ba3e2daba55205f3ff8a109e630a2",
			"7dfa5995dbb50544a349571f339681a746645efbd3d64edf40b03e8d632580ee",
			"2f2ac4cab956e819d568eae9e91584e406eeda4072b0a2132f6f7cbd30347dee",
			"f1d1ec9390d0ca65143186b044840b97b122543a415edb1fc6f0fcdf0bad60d9",
			"c37752685cc492eb3e332ead5bf3a7c12c7567931bb44364f05bcd968c5f79cb",
			"9de43e3166deb6704263b074a2c220cc145e5a3451fe2209fc8821424e540d73",
			"7a2b46ac3364c713b1c3f061568a08f74033e28b491771ed77f207f6766ac337",
			"03e60d17fa61caef15e0d6019978f026183f8b909bd53f38f03b795d5d252bcf",
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := runObservedCfg(t, c.cfg)
			for i, e := range []struct {
				name string
				data []byte
			}{
				{"chrome trace", a.chrome},
				{"metrics json", a.metJSON},
				{"metrics csv", a.metCSV},
				{"metrics prom", a.metProm},
				{"why dot", a.whyDOT},
				{"why json", a.whyJSON},
				{"flight json", a.flJSON},
				{"flight tail", a.flTail},
			} {
				sum := sha256.Sum256(e.data)
				if got := hex.EncodeToString(sum[:]); got != c.want[i] {
					t.Errorf("%s digest = %s, want %s", e.name, got, c.want[i])
				}
			}
		})
	}
}
