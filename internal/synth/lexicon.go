package synth

// The lexicon is the raw material of the generator: real English word
// pools, so that generated messages pass the character-n-gram language
// detector and produce realistic word/char n-gram distributions. Topic
// lexicons mirror Table I of the paper (the 12 labelled Reddit topics plus
// the dark-web drug domain the forums share).

// Topic labels, matching Table I.
const (
	TopicCulture       = "Culture"
	TopicCrypto        = "Cryptocurrencies"
	TopicDrugs         = "Drugs"
	TopicEntertainment = "Entertainment"
	TopicFinancial     = "Financial"
	TopicLifestyle     = "Lifestyle/Sports"
	TopicNews          = "News"
	TopicPlaces        = "Places"
	TopicPolitics      = "Politics"
	TopicR18           = "R18+"
	TopicPsych         = "Psychological help"
	TopicTech          = "Tech/Tor"
	TopicVideogame     = "Videogame"
)

// Topics lists every topic label in Table I order.
var Topics = []string{
	TopicCulture, TopicCrypto, TopicDrugs, TopicEntertainment,
	TopicFinancial, TopicLifestyle, TopicNews, TopicPlaces, TopicPolitics,
	TopicR18, TopicPsych, TopicTech, TopicVideogame,
}

// subredditsByTopic gives each topic a handful of board names, the most
// popular first (mirroring Table I's "popular subreddit" column).
var subredditsByTopic = map[string][]string{
	TopicCulture:       {"science", "books", "history", "philosophy", "art"},
	TopicCrypto:        {"bitcoin", "cryptocurrency", "ethereum", "monero", "btc"},
	TopicDrugs:         {"DarkNetMarkets", "drugs", "LSD", "MDMA", "opiates", "trees", "researchchemicals"},
	TopicEntertainment: {"pics", "funny", "movies", "television", "music", "videos"},
	TopicFinancial:     {"personalfinance", "investing", "frugal", "stocks"},
	TopicLifestyle:     {"LifeProTips", "fitness", "running", "cooking", "soccer", "nba"},
	TopicNews:          {"worldnews", "news", "UpliftingNews"},
	TopicPlaces:        {"canada", "unitedkingdom", "australia", "europe", "nyc"},
	TopicPolitics:      {"politics", "PoliticalDiscussion", "libertarian"},
	TopicR18:           {"sex", "gonewild", "nsfw"},
	TopicPsych:         {"GetMotivated", "depression", "anxiety", "decidingtobebetter"},
	TopicTech:          {"technology", "TOR", "privacy", "netsec", "linux", "programming"},
	TopicVideogame:     {"gaming", "pcgaming", "leagueoflegends", "fallout", "GlobalOffensive"},
}

// topicPopularity skews how often the population posts about each topic.
// Mirrors Table I's message distribution: the dataset is built from
// DarkNetMarkets commenters, so Drugs dominates (33.7%), Entertainment is
// second (22.4%), and the rest share the remainder.
var topicPopularity = map[string]float64{
	TopicCulture:       0.55,
	TopicCrypto:        1.6,
	TopicDrugs:         5.5,
	TopicEntertainment: 4.5,
	TopicFinancial:     0.25,
	TopicLifestyle:     2.8,
	TopicNews:          1.2,
	TopicPlaces:        0.8,
	TopicPolitics:      1.6,
	TopicR18:           1.2,
	TopicPsych:         0.14,
	TopicTech:          1.0,
	TopicVideogame:     2.2,
}

// topicNouns are the content-noun pools per topic.
var topicNouns = map[string][]string{
	TopicCulture: {
		"book", "novel", "author", "painting", "museum", "theory", "study",
		"research", "culture", "language", "history", "philosophy", "idea",
		"science", "experiment", "paper", "article", "professor", "poem",
		"writer", "chapter", "library", "exhibit", "civilization", "century",
	},
	TopicCrypto: {
		"bitcoin", "wallet", "blockchain", "transaction", "exchange", "coin",
		"price", "market", "fee", "address", "key", "ledger", "mining",
		"miner", "block", "satoshi", "monero", "ethereum", "token", "chart",
		"volume", "escrow", "confirmation", "node", "fork", "altcoin",
	},
	TopicDrugs: {
		"vendor", "shipping", "package", "stealth", "quality", "gram",
		"dose", "tab", "batch", "order", "product", "sample", "review",
		"market", "listing", "acid", "molly", "mushroom", "weed", "strain",
		"powder", "crystal", "pill", "capsule", "tolerance", "trip",
		"experience", "comedown", "substance", "chemical", "scale", "bag",
		"drop", "pickup", "tracking", "refund", "reship", "scammer",
	},
	TopicEntertainment: {
		"movie", "film", "show", "episode", "season", "actor", "scene",
		"trailer", "album", "song", "band", "concert", "meme", "video",
		"channel", "series", "director", "soundtrack", "picture", "camera",
	},
	TopicFinancial: {
		"money", "budget", "saving", "account", "bank", "loan", "debt",
		"credit", "interest", "salary", "income", "tax", "investment",
		"fund", "retirement", "expense", "payment", "mortgage", "stock",
	},
	TopicLifestyle: {
		"workout", "gym", "diet", "recipe", "meal", "protein", "run",
		"race", "team", "game", "match", "season", "coach", "training",
		"habit", "routine", "sleep", "goal", "kitchen", "garden",
	},
	TopicNews: {
		"government", "country", "report", "statement", "official",
		"police", "investigation", "law", "court", "case", "crisis",
		"economy", "minister", "agency", "border", "attack", "protest",
	},
	TopicPlaces: {
		"city", "town", "neighborhood", "street", "bar", "restaurant",
		"park", "train", "bus", "airport", "rent", "apartment", "weather",
		"winter", "summer", "festival", "downtown", "traffic", "museum",
	},
	TopicPolitics: {
		"election", "vote", "candidate", "party", "senate", "congress",
		"president", "policy", "bill", "debate", "campaign", "media",
		"supporter", "left", "right", "freedom", "right", "tax", "reform",
	},
	TopicR18: {
		"relationship", "partner", "date", "dating", "marriage", "advice",
		"experience", "confidence", "body", "feeling", "attraction",
	},
	TopicPsych: {
		"therapy", "therapist", "anxiety", "depression", "motivation",
		"mood", "feeling", "mind", "stress", "habit", "progress", "help",
		"support", "recovery", "medication", "doctor", "session",
	},
	TopicTech: {
		"computer", "laptop", "server", "browser", "network", "relay",
		"node", "encryption", "password", "security", "privacy", "software",
		"update", "linux", "script", "code", "bug", "vpn", "router",
		"keyboard", "screen", "phone", "android", "battery", "firmware",
	},
	TopicVideogame: {
		"game", "player", "level", "boss", "quest", "loot", "server",
		"match", "rank", "team", "weapon", "map", "patch", "update",
		"console", "controller", "graphics", "frame", "lag", "account",
		"skin", "character", "build", "dps", "raid", "lobby",
	},
}

// topicVerbs and topicAdjectives season the shared pools with domain
// colour; they are smaller because verbs/adjectives transfer across topics.
var topicVerbs = map[string][]string{
	TopicCrypto:    {"trade", "transfer", "confirm", "hodl", "withdraw", "deposit"},
	TopicDrugs:     {"ship", "order", "dose", "vend", "test", "weigh", "arrive"},
	TopicTech:      {"install", "configure", "compile", "encrypt", "reboot", "patch"},
	TopicVideogame: {"play", "grind", "spawn", "nerf", "buff", "stream"},
	TopicPolitics:  {"vote", "elect", "protest", "argue", "debate"},
	TopicPsych:     {"cope", "struggle", "improve", "relapse", "meditate"},
}

var topicAdjectives = map[string][]string{
	TopicCrypto:    {"volatile", "decentralized", "bullish", "bearish"},
	TopicDrugs:     {"clean", "pure", "sketchy", "legit", "potent", "mild"},
	TopicTech:      {"secure", "encrypted", "open", "stable", "buggy"},
	TopicVideogame: {"competitive", "casual", "broken", "balanced"},
	TopicPolitics:  {"liberal", "conservative", "corrupt", "partisan"},
	TopicPsych:     {"anxious", "hopeful", "exhausted", "grateful"},
}

// Shared pools.

var commonVerbs = []string{
	"think", "know", "want", "need", "like", "love", "hate", "see", "look",
	"find", "get", "make", "take", "give", "tell", "say", "ask", "try",
	"use", "work", "buy", "sell", "pay", "send", "receive", "wait", "hope",
	"feel", "believe", "remember", "forget", "understand", "agree",
	"recommend", "suggest", "expect", "start", "stop", "keep", "leave",
	"read", "write", "post", "reply", "check", "order", "arrive", "happen",
	"change", "help", "learn", "hear", "talk", "speak", "live", "move",
	"stay", "come", "go", "run", "turn", "show", "share", "follow",
}

var commonAdjectives = []string{
	"good", "bad", "great", "terrible", "nice", "awesome", "awful",
	"new", "old", "big", "small", "long", "short", "high", "low", "fast",
	"slow", "easy", "hard", "cheap", "expensive", "free", "safe",
	"dangerous", "happy", "sad", "angry", "crazy", "weird", "strange",
	"interesting", "boring", "important", "serious", "funny", "real",
	"fake", "honest", "careful", "quick", "solid", "decent", "amazing",
	"horrible", "reliable", "shady", "normal", "different", "similar",
	"early", "late", "right", "wrong", "sure", "certain", "obvious",
}

var commonAdverbs = []string{
	"really", "very", "pretty", "quite", "too", "so", "just", "only",
	"always", "never", "often", "sometimes", "usually", "rarely",
	"probably", "definitely", "honestly", "basically", "literally",
	"actually", "seriously", "totally", "completely", "absolutely",
	"barely", "nearly", "almost", "maybe", "perhaps", "already", "still",
	"again", "soon", "here", "there", "everywhere", "recently", "lately",
}

var genericNouns = []string{
	"thing", "time", "day", "week", "month", "year", "way", "people",
	"person", "guy", "friend", "place", "home", "house", "work", "job",
	"problem", "question", "answer", "reason", "point", "part", "end",
	"side", "case", "fact", "idea", "word", "name", "number", "hour",
	"night", "morning", "money", "price", "post", "thread", "comment",
	"forum", "site", "account", "message", "story", "life", "world",
	"experience", "advice", "opinion", "information", "stuff", "deal",
}

var pronounsSubject = []string{"i", "you", "he", "she", "we", "they", "it"}

var determiners = []string{"the", "a", "this", "that", "my", "your", "some", "any", "every", "each", "another", "his", "her", "their", "our"}

var prepositions = []string{"of", "in", "on", "at", "for", "with", "from", "about", "after", "before", "between", "during", "through", "over", "under", "around", "without"}

var conjunctions = []string{"and", "but", "or", "so", "because", "if", "when", "while", "although", "since", "unless", "though"}

var auxiliaries = []string{"will", "would", "can", "could", "should", "must", "might", "may", "have to", "used to", "going to"}

// slangPool: forum shorthand; each user adopts a subset.
var slangPool = []string{
	"lol", "lmao", "imo", "imho", "tbh", "afaik", "iirc", "btw", "fyi",
	"smh", "ikr", "ffs", "wtf", "omg", "idk", "irl", "dm", "op", "pm",
	"nvm", "thx", "pls", "rn", "af", "fr", "ngl", "yolo", "sus", "meh",
	"welp", "yep", "nope", "yeah", "nah", "dude", "bro", "mate", "folks",
	"kinda", "sorta", "gonna", "wanna", "gotta", "dunno", "lemme", "gimme",
}

// typoPool: characteristic misspellings; each user owns a few and applies
// them consistently — exactly the idiosyncrasy char n-grams catch.
var typoPool = map[string]string{
	"definitely": "definately", "a lot": "alot", "receive": "recieve",
	"separate": "seperate", "weird": "wierd", "believe": "beleive",
	"until": "untill", "tomorrow": "tommorow", "really": "realy",
	"which": "wich", "because": "becuase", "their": "thier",
	"probably": "probly", "going to": "gunna", "should have": "should of",
	"could have": "could of", "you": "u", "your": "ur", "are": "r",
	"to": "2", "for": "4", "please": "plz", "people": "ppl",
	"though": "tho", "through": "thru", "right": "rite", "what": "wat",
	"know": "no", "whether": "wether", "grammar": "grammer",
	"tonight": "tonite", "something": "somethin", "nothing": "nothin",
}

// phrasePool: multi-word habits (word-bigram signatures).
var phrasePool = []string{
	"to be honest", "in my opinion", "at the end of the day",
	"for what it's worth", "as far as i know", "if i remember correctly",
	"long story short", "not gonna lie", "on the other hand",
	"first of all", "last but not least", "believe it or not",
	"needless to say", "correct me if i'm wrong", "just my two cents",
	"your mileage may vary", "take it with a grain of salt",
	"i could be wrong but", "from my experience", "in the long run",
	"at this point", "for the record", "truth be told", "no offense but",
	"i can confirm", "can confirm", "this is the way", "hope this helps",
	"thanks in advance", "stay safe out there", "happy to help",
}

// openerPool starts sentences; per-user preferences are strong signals.
var openerPool = []string{
	"well", "ok so", "honestly", "look", "listen", "anyway", "also",
	"besides", "personally", "frankly", "actually", "so", "yeah",
	"alright", "man", "oh", "hmm", "right", "thing is", "fun fact",
}

// emojiPool: code points the polishing step must strip.
var emojiPool = []string{"😂", "😅", "🙃", "👍", "🔥", "💯", "🙏", "😎", "🤔", "😭", "🚀", "🌿", "🍄", "💊", "⚡", "✌️"}

// nicknameAdjectives and nicknameNouns build alias names.
var nicknameAdjectives = []string{
	"silent", "dark", "happy", "lucky", "crazy", "lazy", "sneaky", "cosmic",
	"electric", "frozen", "golden", "hidden", "iron", "jolly", "mellow",
	"neon", "quantum", "rusty", "shadow", "turbo", "velvet", "wicked",
	"zen", "arctic", "blazing", "chrome", "digital", "emerald", "feral",
}

var nicknameNouns = []string{
	"panda", "wolf", "raven", "fox", "tiger", "ghost", "wizard", "pirate",
	"ninja", "samurai", "viking", "knight", "falcon", "cobra", "dragon",
	"phoenix", "otter", "badger", "walrus", "mongoose", "lynx", "puma",
	"gecko", "mantis", "sparrow", "crow", "owl", "hawk", "jackal", "mole",
}

// mergedLexicon precomputes per-topic merged pools.
type mergedLexicon struct {
	nouns      []string
	verbs      []string
	adjectives []string
}

var topicMerged = func() map[string]mergedLexicon {
	out := make(map[string]mergedLexicon, len(Topics))
	for _, t := range Topics {
		m := mergedLexicon{
			nouns:      append(append([]string{}, topicNouns[t]...), genericNouns...),
			verbs:      append(append([]string{}, topicVerbs[t]...), commonVerbs...),
			adjectives: append(append([]string{}, topicAdjectives[t]...), commonAdjectives...),
		}
		out[t] = m
	}
	return out
}()

// TopicOfBoard maps a board (subreddit) name back to its Table-I topic
// label, "" when unknown. Used by the Table I reproduction harness.
func TopicOfBoard(board string) string {
	for topic, boards := range subredditsByTopic {
		for _, b := range boards {
			if b == board {
				return topic
			}
		}
	}
	return ""
}
